package aifm

import (
	"testing"

	"trackfm/internal/sim"
)

// recountCold counts the table's cold residents: the number the pool's
// cold count keeps without looking.
func recountCold(p *Pool) int64 {
	var n int64
	for id := range p.table {
		if p.Meta(ObjectID(id)).cold() {
			n++
		}
	}
	return n
}

// TestColdCountMatchesTable drives every path that publishes a metadata
// word — hits, misses, prefetches, frees, both halves of Resize,
// EvacuateAll, and demand eviction throttled and not — and holds the cold
// count to a recount of the table after each operation.
func TestColdCountMatchesTable(t *testing.T) {
	const slots, objects = 16, 64
	// Built at twice the working budget, then shrunk to it, so the mix's
	// resizes both shrink and grow back.
	p, _, _ := newTestPool(t, 64, objects*64, 2*slots*64)
	if err := p.Resize(slots * 64); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(30)
	var buf [8]byte
	var sawCold, sawNoneCold bool
	for step := 0; step < 5000; step++ {
		id := ObjectID(rng.Intn(objects))
		var op string
		switch r := rng.Intn(64); {
		case r < 20:
			op = "read"
			access(t, p, id, 0, buf[:], false)
		case r < 36:
			op = "write"
			access(t, p, id, 0, buf[:], true)
		case r < 52:
			op = "prefetch"
			p.Prefetch(id)
		case r < 55:
			op = "free"
			p.Free(id)
		case r < 58:
			op = "resize"
			if err := p.Resize(uint64(4+rng.Intn(2*slots-3)) * 64); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case r < 60:
			op = "throttle"
			p.Throttle(!p.Throttled())
		default:
			op = "evacuate-all"
			p.EvacuateAll()
		}
		got, want := p.cold.Load(), recountCold(p)
		if got != want {
			t.Fatalf("step %d (%s of %d): cold count %d, table holds %d", step, op, id, got, want)
		}
		sawCold = sawCold || got > 0
		sawNoneCold = sawNoneCold || got == 0 && p.ResidentSlots() > 0
	}
	if !sawCold || !sawNoneCold {
		t.Fatalf("the mix never reached both states: some cold %v, residents but none cold %v", sawCold, sawNoneCold)
	}
}

// allHotPool fills a pool of the given number of slots with hot residents
// 0..slots-1 and returns it with the id of an object that lives only on the
// far side.
func allHotPool(tb testing.TB, slots int) (*Pool, *sim.Env, ObjectID) {
	p, env, _ := newTestPool(tb, 64, uint64(4*slots*64), uint64(slots*64))
	remote := ObjectID(3 * slots)
	touch(tb, p, remote, true)
	p.EvacuateAll()
	for id := ObjectID(0); id < ObjectID(slots); id++ {
		touch(tb, p, id, false)
	}
	return p, env, remote
}

// TestGentleTakeWithNothingColdIsANoOp pins down that a prefetch finding
// no cold resident gives up without a trace — exactly what a full failed
// clock lap used to leave — and that one cold resident is found.
func TestGentleTakeWithNothingColdIsANoOp(t *testing.T) {
	const slots = 8
	p, env, remote := allHotPool(t, slots)
	if n := p.cold.Load(); n != 0 {
		t.Fatalf("all-hot pool counts %d cold residents", n)
	}
	evacs, fetches, cycles, hand := env.Counters.Evacuations, env.Counters.RemoteFetches, env.Clock.Cycles(), p.hand.Load()
	p.Prefetch(remote)
	switch {
	case p.Meta(remote).Present():
		t.Fatalf("prefetch installed object %d with nothing cold to evict", remote)
	case env.Counters.Evacuations != evacs:
		t.Fatalf("prefetch evicted %d residents", env.Counters.Evacuations-evacs)
	case env.Counters.PrefetchIssued != 0 || env.Counters.RemoteFetches != fetches:
		t.Fatalf("prefetch issued %d fetches", env.Counters.RemoteFetches-fetches)
	case env.Clock.Cycles() != cycles:
		t.Fatalf("prefetch charged %d cycles", env.Clock.Cycles()-cycles)
	case (p.hand.Load()-hand)%uint64(len(p.slotOwner)) != 0:
		t.Fatalf("prefetch moved the clock hand to another slot")
	}

	// The next demand miss evicts what it would have without the prefetch:
	// pass 1 clears every H bit in one lap, and pass 2 starts back at slot
	// 0, which holds object 7 (the free stack hands out slots top down).
	twin, _, _ := allHotPool(t, slots)
	victim := func(p *Pool) ObjectID {
		touch(t, p, slots, false)
		for id := ObjectID(0); id < slots; id++ {
			if !p.Meta(id).Present() {
				return id
			}
		}
		t.Fatalf("demand miss on a full pool evicted none of its residents")
		return 0
	}
	if got, want := victim(p), victim(twin); got != want || got != 7 {
		t.Fatalf("demand miss after the prefetch evicted object %d; without it %d, want 7", got, want)
	}

	// One resident made cold is exactly the one a prefetch takes.
	p, env, remote = allHotPool(t, slots)
	p.storeMeta(3, p.Meta(3)&^MetaH)
	if n := p.cold.Load(); n != 1 {
		t.Fatalf("cold count %d after cooling one resident", n)
	}
	evacs = env.Counters.Evacuations
	p.Prefetch(remote)
	if n := env.Counters.Evacuations - evacs; n != 1 || env.Counters.PrefetchIssued != 1 {
		t.Fatalf("prefetch evicted %d and issued %d, want 1 and 1", n, env.Counters.PrefetchIssued)
	}
	for id := ObjectID(0); id < slots; id++ {
		if p.Meta(id).Present() == (id == 3) {
			t.Fatalf("object %d present=%v after the prefetch; only object 3 should be gone", id, p.Meta(id).Present())
		}
	}
	if !p.Meta(remote).Prefetched() || p.cold.Load() != 0 {
		t.Fatalf("object %d not installed as prefetched (cold count %d)", remote, p.cold.Load())
	}
}

// BenchmarkPrefetchNothingCold times a prefetch that finds no free slot and
// nothing cold to evict on a 2048-slot pool of hot residents — the
// prefetch a chunked scan issues when its working set fills local memory.
func BenchmarkPrefetchNothingCold(b *testing.B) {
	p, _, remote := allHotPool(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Prefetch(remote)
	}
	b.StopTimer()
	if p.Meta(remote).Present() {
		b.Fatalf("prefetch evicted a hot resident")
	}
}
