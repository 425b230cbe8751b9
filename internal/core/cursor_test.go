package core

import (
	"testing"
)

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
