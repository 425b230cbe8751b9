package aifm

import (
	"testing"

	"trackfm/internal/mem/bufpool"
)

// TestSteadyStateFetchAllocFree is the demand-fetch allocation regression
// gate: once the working set has been touched (all first-touch zero-fill
// materializations done, the transport's blob map warmed), a steady-state
// miss — guard miss, eviction of a clean victim, blocking SimLink fetch,
// install, singleflight bookkeeping — must not allocate at all. Together
// with TestGuardFastPathAllocFree this pins both halves of the hot path
// the bufpool exists for.
func TestSteadyStateFetchAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation and lease tracking allocate")
	}
	const objSize = 4096
	// 16 circulating slots, 64 objects: every localize in the scan below
	// misses and must evict a clean resident.
	p, _, _ := newTestPool(t, objSize, 64*objSize, 16*objSize)
	for id := ObjectID(0); id < 64; id++ {
		touch(t, p, id, false) // first touch: zero-fill materialization
	}
	next := ObjectID(0)
	if n := testing.AllocsPerRun(300, func() {
		if err := p.Access(next, 0, nil, false); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % 64
	}); n != 0 {
		t.Fatalf("steady-state demand fetch allocated %v times per run, want 0", n)
	}
}

// TestSteadyStateDirtyEvictAllocFree extends the gate to the write-back
// path: dirty victims are pushed through SimLink (which must reuse its
// stored blob rather than copying into a fresh one) and the evacuation
// scratch must come from the arena window or the pool's slab, never make.
func TestSteadyStateDirtyEvictAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation and lease tracking allocate")
	}
	const objSize = 4096
	p, _, _ := newTestPool(t, objSize, 64*objSize, 16*objSize)
	for id := ObjectID(0); id < 64; id++ {
		touch(t, p, id, true) // dirty: every eviction writes back
	}
	next := ObjectID(0)
	if n := testing.AllocsPerRun(300, func() {
		if err := p.Access(next, 0, nil, true); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % 64
	}); n != 0 {
		t.Fatalf("steady-state dirty fetch+evict allocated %v times per run, want 0", n)
	}
}

// BenchmarkSteadyFetch measures the full demand-miss cycle (fetch + clean
// eviction) for the GC-pressure comparison recorded in EXPERIMENTS.md.
func BenchmarkSteadyFetch(b *testing.B) {
	const objSize = 4096
	p, _, _ := newTestPool(b, objSize, 64*objSize, 16*objSize)
	for id := ObjectID(0); id < 64; id++ {
		touch(b, p, id, false)
	}
	next := ObjectID(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Access(next, 0, nil, false); err != nil {
			b.Fatal(err)
		}
		next = (next + 1) % 64
	}
}

// BenchmarkSteadyFetchDirty is BenchmarkSteadyFetch with write-backs.
func BenchmarkSteadyFetchDirty(b *testing.B) {
	const objSize = 4096
	p, _, _ := newTestPool(b, objSize, 64*objSize, 16*objSize)
	for id := ObjectID(0); id < 64; id++ {
		touch(b, p, id, true)
	}
	next := ObjectID(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Access(next, 0, nil, true); err != nil {
			b.Fatal(err)
		}
		next = (next + 1) % 64
	}
}
