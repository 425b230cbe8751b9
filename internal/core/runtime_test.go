package core

import (
	"math"
	"testing"

	"trackfm/internal/sim"
)

func newTestRuntime(t *testing.T, objSize int, heap, budget uint64) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Env:         sim.NewEnv(),
		ObjectSize:  objSize,
		HeapSize:    heap,
		LocalBudget: budget,
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt
}

func TestNewRuntimeValidation(t *testing.T) {
	env := sim.NewEnv()
	if _, err := NewRuntime(Config{ObjectSize: 64, HeapSize: 1 << 16, LocalBudget: 1 << 12}); err == nil {
		t.Errorf("missing Env accepted")
	}
	if _, err := NewRuntime(Config{Env: env, ObjectSize: 64, LocalBudget: 1 << 12}); err == nil {
		t.Errorf("missing HeapSize accepted")
	}
	if _, err := NewRuntime(Config{Env: env, ObjectSize: 64, HeapSize: 1 << 16}); err == nil {
		t.Errorf("missing LocalBudget accepted")
	}
	if _, err := NewRuntime(Config{Env: env, ObjectSize: 100, HeapSize: 1 << 16, LocalBudget: 1 << 12}); err == nil {
		t.Errorf("non-power-of-two object size accepted")
	}
	rt, err := NewRuntime(Config{Env: env, HeapSize: 1 << 20, LocalBudget: 1 << 16})
	if err != nil {
		t.Fatalf("default object size rejected: %v", err)
	}
	if rt.ObjectSize() != 4096 {
		t.Errorf("default ObjectSize = %d, want 4096", rt.ObjectSize())
	}
}

func TestMallocReturnsManagedPointers(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p, err := rt.Malloc(128)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if !p.Managed() {
		t.Fatalf("Malloc returned canonical pointer %#x", uint64(p))
	}
	if rt.Env().Counters.Mallocs != 1 {
		t.Fatalf("Mallocs counter = %d", rt.Env().Counters.Mallocs)
	}
	if rt.HeapBytesInUse() != 128 {
		t.Fatalf("HeapBytesInUse = %d", rt.HeapBytesInUse())
	}
}

func TestMallocZeroBytes(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p, err := rt.Malloc(0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	rt.Free(p) // must be a valid, freeable pointer
}

func TestMallocSmallAllocationsShareObjects(t *testing.T) {
	rt := newTestRuntime(t, 4096, 1<<20, 1<<16)
	a := rt.MustMalloc(16)
	b := rt.MustMalloc(16)
	idA, _ := a.object(12)
	idB, _ := b.object(12)
	if idA != idB {
		t.Fatalf("small allocations not grouped: objects %d and %d", idA, idB)
	}
}

func TestMallocSmallAllocationNeverStraddles(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<20, 1<<14)
	for i := 0; i < 200; i++ {
		n := uint64(8 + (i%7)*8) // 8..56 bytes
		p := rt.MustMalloc(n)
		start, end := p.HeapOffset(), p.HeapOffset()+n-1
		if start>>6 != end>>6 {
			t.Fatalf("allocation %d of %dB straddles objects: [%#x,%#x]", i, n, start, end)
		}
	}
}

func TestMallocExhaustion(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<10, 1<<10)
	rt.MustMalloc(1)
	for _, n := range []uint64{1 << 11, math.MaxUint64 - 15} { // the second wraps past 2^64 from the next 16-byte boundary
		if _, err := rt.Malloc(n); err == nil {
			t.Fatalf("over-heap Malloc(%d) succeeded", n)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(64)
	rt.StoreU64(p, 0xDEAD_BEEF)
	if got := rt.LoadU64(p); got != 0xDEAD_BEEF {
		t.Fatalf("LoadU64 = %#x", got)
	}
}

func TestLoadStoreSurvivesEviction(t *testing.T) {
	// One local slot: every alternate access evicts the other object.
	rt := newTestRuntime(t, 64, 1<<16, 64)
	a := rt.MustMalloc(8)
	b := rt.MustMalloc(64) // lands in the next object
	rt.StoreU64(a, 111)
	rt.StoreU64(b, 222)
	if rt.LoadU64(a) != 111 {
		t.Fatalf("a lost across eviction")
	}
	if rt.LoadU64(b) != 222 {
		t.Fatalf("b lost across eviction")
	}
	if rt.Env().Counters.Evacuations == 0 {
		t.Fatalf("no evictions happened; test is vacuous")
	}
}

func TestBulkAccessSpansObjects(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(256) // 4 objects
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	rt.Store(p, src)
	dst := make([]byte, 256)
	rt.Load(p, dst)
	for i := range dst {
		if dst[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, dst[i])
		}
	}
	// 4 objects written + 4 read = at least 8 guards.
	if g := rt.Env().Counters.Guards(); g < 8 {
		t.Fatalf("Guards = %d, want >= 8", g)
	}
}

func TestGuardFastVsSlowPaths(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(8)
	rt.StoreU64(p, 1) // first touch: slow path (object not yet local)
	c := &rt.Env().Counters
	if c.SlowPathGuards != 1 || c.FastPathGuards != 0 {
		t.Fatalf("first access: fast=%d slow=%d", c.FastPathGuards, c.SlowPathGuards)
	}
	rt.LoadU64(p) // resident now: fast path
	if c.FastPathGuards != 1 {
		t.Fatalf("second access: fast=%d", c.FastPathGuards)
	}
}

func TestGuardCostsChargedPerTable1(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	env := rt.Env()
	p := rt.MustMalloc(8)
	rt.StoreU64(p, 1) // localize

	// Warm fast-path read: guard (21) + load/store (36).
	before := env.Clock.Cycles()
	rt.LoadU64(p)
	got := env.Clock.Cycles() - before
	want := env.Costs.FastGuardReadCached + env.Costs.LocalLoadStore
	if got != want {
		t.Fatalf("warm fast read charged %d, want %d", got, want)
	}

	// Cold OST line: uncached fast-path cost.
	rt.FlushOSTCache()
	before = env.Clock.Cycles()
	rt.LoadU64(p)
	got = env.Clock.Cycles() - before
	want = env.Costs.FastGuardReadUncached + env.Costs.LocalLoadStore
	if got != want {
		t.Fatalf("cold fast read charged %d, want %d", got, want)
	}
}

func TestSlowGuardRemoteCost(t *testing.T) {
	// Table 2: an access whose object was evacuated pays the slow guard
	// plus the ~35K-cycle remote fetch.
	rt := newTestRuntime(t, 4096, 1<<20, 1<<16)
	env := rt.Env()
	p := rt.MustMalloc(8)
	rt.StoreU64(p, 1)
	rt.EvacuateAll()
	rt.FlushOSTCache()
	before := env.Clock.Cycles()
	rt.LoadU64(p) // slow path + remote fetch
	got := env.Clock.Cycles() - before
	fetch := env.Costs.RemoteObjectFetch(4096)
	if got < fetch {
		t.Fatalf("remote slow access charged %d, below fetch cost %d", got, fetch)
	}
	if got > fetch+2*env.Costs.SlowGuardReadUncached {
		t.Fatalf("remote slow access charged %d, way above fetch+guard", got)
	}
}

func TestFirstTouchIsCheapMaterialization(t *testing.T) {
	// Freshly malloc'd memory must not cross the network on first touch.
	rt := newTestRuntime(t, 4096, 1<<20, 1<<16)
	env := rt.Env()
	p := rt.MustMalloc(8)
	before := env.Clock.Cycles()
	rt.StoreU64(p, 1)
	got := env.Clock.Cycles() - before
	if got >= env.Costs.RemoteObjectFetch(4096) {
		t.Fatalf("first touch charged %d cycles (a remote fetch)", got)
	}
	if env.Counters.BytesFetched != 0 {
		t.Fatalf("first touch moved %d bytes", env.Counters.BytesFetched)
	}
}

func TestCustodyReject(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	env := rt.Env()
	before := env.Clock.Cycles()
	rt.CustodyReject()
	if env.Clock.Cycles()-before != env.Costs.CustodyCheck {
		t.Fatalf("custody reject charged %d", env.Clock.Cycles()-before)
	}
	if env.Counters.CustodyRejects != 1 {
		t.Fatalf("CustodyRejects = %d", env.Counters.CustodyRejects)
	}
}

func TestUnmanagedAccessPanics(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatalf("unmanaged access did not panic")
		}
	}()
	rt.LoadU64(Ptr(0x1000))
}

func TestOutOfHeapAccessPanics(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<10, 1<<10)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-heap access did not panic")
		}
	}()
	rt.LoadU64(ptrBase + Ptr(1<<10))
}

func TestFreeReleasesObjects(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(256) // 4 whole objects
	rt.StoreU64(p, 7)
	rt.Free(p)
	if rt.HeapBytesInUse() != 0 {
		t.Fatalf("HeapBytesInUse = %d after Free", rt.HeapBytesInUse())
	}
	if rt.Env().Counters.Frees != 1 {
		t.Fatalf("Frees = %d", rt.Env().Counters.Frees)
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatalf("Free of unknown pointer did not panic")
		}
	}()
	rt.Free(ptrBase + 123)
}

// TestCursorPrefetchFlag: whether a stream prefetches is the compiler's
// decision, carried by NewCursor's argument and by nothing else — a cursor
// opened without it issues no prefetch, the same walk with it does.
func TestCursorPrefetchFlag(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		rt, err := NewRuntime(Config{
			Env: sim.NewEnv(), ObjectSize: 64,
			HeapSize: 1 << 16, LocalBudget: 1 << 12,
		})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		const n = 64 // 8 objects of 8 elements
		p := rt.MustMalloc(n * 8)
		for i := uint64(0); i < n; i++ {
			rt.StoreU64(p.Add(i*8), 1)
		}
		rt.EvacuateAll()
		cur := rt.NewCursor(p, 8, prefetch)
		for i := uint64(0); i < n; i++ {
			cur.LoadU64(i)
		}
		cur.Close()
		if issued := rt.Env().Counters.PrefetchIssued; (issued != 0) != prefetch {
			t.Fatalf("prefetch=%v: cursor issued %d prefetches", prefetch, issued)
		}
	}
}
