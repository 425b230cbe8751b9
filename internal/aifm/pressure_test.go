package aifm

import (
	"sync"
	"testing"

	"trackfm/internal/modeltest"
	"trackfm/internal/sim"
)

func TestResizeShrinkConvergesLazilyPastPins(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 4*64)
	for id := ObjectID(0); id < 4; id++ {
		pin(t, p, id, false)
	}
	// Every slot pinned: the shrink cannot evict anything now, so it
	// applies what it can and leaves the rest to converge lazily.
	if err := p.Resize(2 * 64); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if got := p.NumSlots(); got != 2 {
		t.Fatalf("target = %d, want 2", got)
	}
	if got := p.CurrentSlots(); got != 4 {
		t.Fatalf("CurrentSlots = %d, want 4 (pinned residents stay put)", got)
	}
	// Pins release: each freed slot retires instead of recirculating,
	// converging the pool onto its new budget.
	for id := ObjectID(0); id < 2; id++ {
		p.Unpin(id)
		p.Free(id)
	}
	if got := p.CurrentSlots(); got != 2 {
		t.Fatalf("CurrentSlots = %d after releases, want 2", got)
	}
	if got := p.ReserveFree(); got != p.ReserveFloor() {
		t.Fatalf("reserve floor disturbed by lazy shrink: %d != %d", got, p.ReserveFloor())
	}
	p.Unpin(2)
	p.Unpin(3)
}

// TestPrefetchSkipsAboveHighWater: throttled, the pool admits a prefetch
// below its 0.75 high-water mark and skips one above it rather than evict
// (Step: metadata unchanged, no eviction, one skip counted); unthrottled,
// it admits that prefetch again (Step: a prefetch the gate admits takes a
// free slot).
func TestPrefetchSkipsAboveHighWater(t *testing.T) {
	var ops []modeltest.Op
	for id := range ObjectID(2 * modelSlots) { // far copies for the prefetches to fetch
		ops = append(ops, op("access", id, 1))
	}
	ops = append(append(ops, op("evacuate-all", 0, 0)), readings(0.9)...)
	ops = append(ops, op("access", 0, 0), op("prefetch", 1, 0)) // 2 of 16 slots used
	for id := range ObjectID(11) {
		ops = append(ops, op("access", 2+id, 0)) // 13 of 16
	}
	ops = append(append(append(ops, op("prefetch", 13, 0)), readings(0.05, 0.05, 0.05)...), op("prefetch", 13, 0))
	poolCase(t, "tier-off", ops, "prefetch admitted while throttled", "prefetch skipped under pressure", "governor recovered")
}

// TestThrashDetectorTracksRefaults: a cyclic sweep over 4x the slots
// refetches what it evicted moments ago, so the thrash ratio climbs to 0.5
// and past; a working set that fits evicts nothing (Step: an op evicts
// only with no slot free), so it re-faults nothing and reads a ratio of 0
// (Check).
func TestThrashDetectorTracksRefaults(t *testing.T) {
	var thrash, calm []modeltest.Op
	for range 20 {
		for id := range ObjectID(4 * modelSlots) {
			thrash = append(thrash, op("access", id, 0))
		}
		for id := range ObjectID(modelSlots / 2) {
			calm = append(calm, op("access", id, 0))
		}
	}
	poolCase(t, "tier-off", thrash, "thrash ratio at least 0.5")
	poolCase(t, "tier-off", calm)
}

func TestDemandMissesRespectReserveUnderPinSaturation(t *testing.T) {
	// LocalBudget == pinned set: four workers' demand localizations must
	// keep making progress through the reserve floor, and every borrowed
	// slot must be repaid when its object is freed. Run under -race this
	// doubles as the deadlock-freedom test.
	p, _, _ := newTestPool(t, 64, 1<<16, 8*64)
	t.Cleanup(func() { p.Close() })
	for id := ObjectID(0); id < 8; id++ {
		pin(t, p, id, false)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b [1]byte
			for i := 0; i < 100; i++ {
				id := ObjectID(100 + w*100 + i)
				if err := p.Access(id, 0, []byte{byte(i)}, true); err != nil {
					t.Error(err)
					return
				}
				if err := p.Access(id, 0, b[:], false); err != nil {
					t.Error(err)
					return
				}
				if b[0] != byte(i) {
					t.Errorf("worker %d: object %d = %d", w, id, b[0])
					return
				}
				p.Free(id)
			}
		}(w)
	}
	wg.Wait()
	if got := p.ReserveFree(); got != p.ReserveFloor() {
		t.Fatalf("reserve floor not restored: free %d, floor %d", got, p.ReserveFloor())
	}
	for id := ObjectID(0); id < 8; id++ {
		if !p.Meta(id).Present() {
			t.Fatalf("pinned object %d lost residency", id)
		}
		p.Unpin(id)
	}
}

func TestGuardFastPathAllocFree(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 1<<12)
	touch(t, p, 5, false)
	table := p.Table()
	if n := testing.AllocsPerRun(200, func() {
		if !MetaAt(table, 5).Safe() {
			t.Fatalf("resident object not safe")
		}
	}); n != 0 {
		t.Fatalf("guard fast path allocated %v times per run", n)
	}
	// The resident accesses behind it, a read and a write on a present,
	// unpinned object, must also stay allocation-free.
	var buf [8]byte
	for _, write := range []bool{false, true} {
		if n := testing.AllocsPerRun(200, func() {
			if err := p.Access(5, 0, buf[:], write); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("resident Access (write %v) allocated %v times per run", write, n)
		}
	}
}

// BenchmarkGuardFastPath pins the guard's hit cost: one atomic load and a
// bit test, no allocation — the property Resize and the thrash detector
// must not erode.
func BenchmarkGuardFastPath(b *testing.B) {
	env := sim.NewEnv()
	p, err := NewPool(Config{Env: env, ObjectSize: 64, HeapSize: 1 << 16, LocalBudget: 1 << 12})
	if err != nil {
		b.Fatalf("NewPool: %v", err)
	}
	touch(b, p, 3, false)
	table := p.Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !MetaAt(table, 3).Safe() {
			b.Fatalf("resident object not safe")
		}
	}
}
