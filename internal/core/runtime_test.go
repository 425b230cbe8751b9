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

func TestMallocExhaustion(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<10, 1<<10)
	rt.MustMalloc(1)
	for _, n := range []uint64{1 << 11, math.MaxUint64 - 15} { // the second wraps past 2^64 from the next 16-byte boundary
		if _, err := rt.Malloc(n); err == nil {
			t.Fatalf("over-heap Malloc(%d) succeeded", n)
		}
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

func TestFreeUnknownPanics(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatalf("Free of unknown pointer did not panic")
		}
	}()
	rt.Free(ptrBase + 123)
}
