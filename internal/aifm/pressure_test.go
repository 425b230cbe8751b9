package aifm

import (
	"sync"
	"testing"

	"trackfm/internal/sim"
)

func TestResizeValidation(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 1<<12)
	if err := p.Resize(0); err == nil {
		t.Fatalf("zero-slot budget accepted")
	}
	// The pool cannot grow past its starting size.
	if err := p.Resize(1<<12 + 64); err == nil {
		t.Fatalf("grow past capacity accepted")
	}
}

func TestResizeShrinkEvictsAndGrowReactivates(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 32*64)
	for id := ObjectID(0); id < 32; id++ {
		access(t, p, id, 0, []byte{byte(id) + 1}, true)
	}
	if got := p.ResidentSlots(); got != 32 {
		t.Fatalf("resident = %d, want 32", got)
	}
	// Shrink to half: the coldest unpinned residents are evicted and their
	// slots retired synchronously (nothing is pinned here).
	if err := p.Resize(8 * 64); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := p.NumSlots(); got != 8 {
		t.Fatalf("NumSlots = %d, want 8", got)
	}
	if got := p.CurrentSlots(); got != 8 {
		t.Fatalf("CurrentSlots = %d, want 8 (unpinned shrink completes inline)", got)
	}
	if got := p.ResidentSlots(); got > 8 {
		t.Fatalf("resident %d exceeds shrunk budget", got)
	}
	// Grow back to the starting budget; retired slots come back into
	// circulation.
	if err := p.Resize(32 * 64); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := p.NumSlots(); got != 32 {
		t.Fatalf("NumSlots = %d, want 32", got)
	}
	if err := p.Resize(33 * 64); err == nil {
		t.Fatalf("grow past the starting budget accepted")
	}
	// No data lost across the squeeze: evicted objects re-fetch intact,
	// and all of them fit again — into the slots the shrink retired.
	var b [1]byte
	for id := ObjectID(0); id < 32; id++ {
		access(t, p, id, 0, b[:], false)
		if b[0] != byte(id)+1 {
			t.Fatalf("object %d = %d after resize", id, b[0])
		}
	}
	if got := p.ResidentSlots(); got != 32 {
		t.Fatalf("resident = %d after regrow, want 32", got)
	}
	if got := p.Resizes(); got != 2 {
		t.Fatalf("resizes = %d, want 2", got)
	}
}

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

func TestPrefetchSkipsAboveHighWater(t *testing.T) {
	// 8 slots, so occupancy can sit on either side of the throttled
	// pool's 0.75 admission gate.
	p, env, _ := newTestPool(t, 64, 1<<16, 8*64)
	// Seed remote copies so prefetch has real fetches to do.
	for id := ObjectID(0); id < 16; id++ {
		access(t, p, id, 0, []byte{1}, true)
	}
	p.EvacuateAll()
	p.Throttle(true)

	// Below the mark (1 of 8 slots used) prefetch is admitted.
	touch(t, p, 0, false)
	p.Prefetch(1)
	if !p.Meta(1).Present() {
		t.Fatalf("prefetch below the high-water mark not admitted")
	}
	if n := sim.Load(&env.Counters.PrefetchSkippedPressure); n != 0 {
		t.Fatalf("admitted prefetch counted as skipped: %d", n)
	}

	// Above the mark (7 of 8 slots used) prefetch must skip — not evict.
	for id := ObjectID(2); id < 7; id++ {
		touch(t, p, id, false)
	}
	evBefore := sim.Load(&env.Counters.Evacuations)
	p.Prefetch(7)
	if p.Meta(7).Present() {
		t.Fatalf("prefetch above the high-water mark installed an object")
	}
	if n := sim.Load(&env.Counters.PrefetchSkippedPressure); n != 1 {
		t.Fatalf("PrefetchSkippedPressure = %d, want 1", n)
	}
	if ev := sim.Load(&env.Counters.Evacuations); ev != evBefore {
		t.Fatalf("pressured prefetch evicted a resident")
	}

	// The gate holds only while throttled: lifted, the same prefetch is
	// admitted.
	p.Throttle(false)
	p.Prefetch(7)
	if !p.Meta(7).Present() {
		t.Fatalf("prefetch on an unthrottled pool not admitted")
	}
}

func TestThrashDetectorTracksRefaults(t *testing.T) {
	// 4 slots, 16-object cyclic sweep: after the first lap every fetch
	// re-localizes something evicted moments ago.
	p, env, _ := newTestPool(t, 64, 1<<16, 4*64)
	var b [1]byte
	for lap := 0; lap < 20; lap++ {
		for id := ObjectID(0); id < 16; id++ {
			access(t, p, id, 0, b[:], false)
		}
	}
	if n := sim.Load(&env.Counters.Refaults); n == 0 {
		t.Fatalf("cyclic sweep at 4x overcommit produced no refaults")
	}
	if r := p.ThrashRatio(); r < 0.5 {
		t.Fatalf("thrash ratio = %v under a pure thrash loop, want >= 0.5", r)
	}

	// A fitting working set reads as calm.
	q, qenv, _ := newTestPool(t, 64, 1<<16, 16*64)
	for lap := 0; lap < 20; lap++ {
		for id := ObjectID(0); id < 8; id++ {
			access(t, q, id, 0, b[:], false)
		}
	}
	if n := sim.Load(&qenv.Counters.Refaults); n != 0 {
		t.Fatalf("fitting working set refaulted %d times", n)
	}
	if r := q.ThrashRatio(); r != 0 {
		t.Fatalf("thrash ratio = %v for a fitting working set", r)
	}
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
