package core

import (
	"testing"
)

func TestCursorSumMatchesGuardedSum(t *testing.T) {
	rt := newTestRuntime(t, 256, 1<<20, 1<<12)
	const n = 1000
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), i)
	}
	var want uint64 = n * (n - 1) / 2

	cur := rt.NewCursor(p, 8, false)
	var got uint64
	for i := uint64(0); i < n; i++ {
		got += cur.LoadU64(i)
	}
	cur.Close()
	if got != want {
		t.Fatalf("chunked sum = %d, want %d", got, want)
	}
}

func TestCursorEliminatesFastPathGuards(t *testing.T) {
	rt := newTestRuntime(t, 256, 1<<20, 1<<16)
	const n = 4096
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), 1)
	}
	env := rt.Env()
	env.Counters.Reset()

	cur := rt.NewCursor(p, 8, false)
	for i := uint64(0); i < n; i++ {
		cur.LoadU64(i)
	}
	cur.Close()
	c := &env.Counters
	if c.FastPathGuards != 0 {
		t.Fatalf("chunked loop executed %d fast-path guards, want 0", c.FastPathGuards)
	}
	if c.BoundaryChecks != n {
		t.Fatalf("BoundaryChecks = %d, want %d", c.BoundaryChecks, n)
	}
	// 4096 elements * 8B / 256B objects = 128 boundary crossings.
	if c.LocalityGuards != 128 {
		t.Fatalf("LocalityGuards = %d, want 128", c.LocalityGuards)
	}
	if c.ChunkInits != 1 {
		t.Fatalf("ChunkInits = %d, want 1", c.ChunkInits)
	}
}

func TestCursorChunkedFasterThanNaiveForDenseLoops(t *testing.T) {
	rt := newTestRuntime(t, 4096, 1<<24, 1<<24) // all local: guard-bound regime
	const n = 1 << 16
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), 1)
	}
	env := rt.Env()

	env.Clock.Reset()
	for i := uint64(0); i < n; i++ {
		rt.LoadU64(p.Add(i * 8))
	}
	naive := env.Clock.Cycles()

	env.Clock.Reset()
	cur := rt.NewCursor(p, 8, false)
	for i := uint64(0); i < n; i++ {
		cur.LoadU64(i)
	}
	cur.Close()
	chunked := env.Clock.Cycles()

	if chunked >= naive {
		t.Fatalf("chunking did not pay in guard-bound regime: chunked=%d naive=%d", chunked, naive)
	}
}

func TestCursorChunkInitHurtsShortLoops(t *testing.T) {
	// A 16-iteration loop re-entered many times (k-means shape): the
	// tfm_init cost per entry must make chunking slower than naive.
	rt := newTestRuntime(t, 4096, 1<<20, 1<<20)
	const trips, entries = 16, 100
	p := rt.MustMalloc(trips * 8)
	for i := uint64(0); i < trips; i++ {
		rt.StoreU64(p.Add(i*8), 1)
	}
	env := rt.Env()

	env.Clock.Reset()
	for e := 0; e < entries; e++ {
		for i := uint64(0); i < trips; i++ {
			rt.LoadU64(p.Add(i * 8))
		}
	}
	naive := env.Clock.Cycles()

	env.Clock.Reset()
	for e := 0; e < entries; e++ {
		cur := rt.NewCursor(p, 8, false)
		for i := uint64(0); i < trips; i++ {
			cur.LoadU64(i)
		}
		cur.Close()
	}
	chunked := env.Clock.Cycles()

	if chunked <= naive {
		t.Fatalf("chunking should hurt short loops: chunked=%d naive=%d", chunked, naive)
	}
}

func TestCursorWriteMarksDirty(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 64) // one slot forces write-back
	p := rt.MustMalloc(8)
	q := rt.MustMalloc(64)
	cur := rt.NewCursor(p, 8, false)
	cur.StoreU64(0, 99)
	cur.Close()
	rt.LoadU64(q) // evicts p's object; dirty data must round-trip
	if got := rt.LoadU64(p); got != 99 {
		t.Fatalf("cursor write lost across eviction: %d", got)
	}
}

func TestCursorStraddlingElementFallsBack(t *testing.T) {
	// 12-byte elements over 64-byte objects straddle every few elements;
	// the cursor must stay correct by falling back to guarded access.
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	const n = 50
	p := rt.MustMalloc(n * 12)
	buf := make([]byte, 12)
	cur := rt.NewCursor(p, 12, false)
	for i := uint64(0); i < n; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		cur.AccessAt(i*12, buf, true)
	}
	for i := uint64(0); i < n; i++ {
		cur.AccessAt(i*12, buf, false)
		for j := range buf {
			if buf[j] != byte(i) {
				t.Fatalf("element %d byte %d = %d", i, j, buf[j])
			}
		}
	}
	cur.Close()
}

func TestCursorPrefetchAtBoundaries(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	const n = 64 // 8 objects of 8 elements
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), 1)
	}
	rt.EvacuateAll()
	env := rt.Env()
	env.Counters.Reset()

	cur := rt.NewCursor(p, 8, true)
	for i := uint64(0); i < n; i++ {
		cur.LoadU64(i)
	}
	cur.Close()
	if env.Counters.PrefetchIssued == 0 {
		t.Fatalf("prefetching cursor issued no prefetches")
	}
	// With prefetch, only the first object's fetch should block.
	if env.Counters.CriticalFetches > 2 {
		t.Fatalf("CriticalFetches = %d with prefetch on", env.Counters.CriticalFetches)
	}
}

func TestCursorCloseIdempotentAndUseAfterClosePanics(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(8)
	cur := rt.NewCursor(p, 8, false)
	cur.LoadU64(0)
	cur.Close()
	cur.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("access through closed cursor did not panic")
		}
	}()
	cur.LoadU64(0)
}

func TestCursorPinPreventsEvictionMidChunk(t *testing.T) {
	// Two slots. The cursor pins its current object; touching other
	// objects through the runtime must never evict the pinned chunk.
	rt := newTestRuntime(t, 64, 1<<16, 128)
	a := rt.MustMalloc(64)
	b := rt.MustMalloc(64)
	c := rt.MustMalloc(64)
	cur := rt.NewCursor(a, 8, false)
	cur.StoreU64(0, 5)
	rt.StoreU64(b, 1)
	rt.StoreU64(c, 1) // must evict b's object, not the pinned chunk
	if got := cur.LoadU64(0); got != 5 {
		t.Fatalf("pinned chunk content = %d", got)
	}
	idA, _ := a.object(6)
	if !rt.Pool().Meta(idA).Present() {
		t.Fatalf("pinned chunk was evicted mid-loop")
	}
	cur.Close()
}
