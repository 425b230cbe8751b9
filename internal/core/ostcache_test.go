package core

import "testing"

func TestOSTCacheLineSharing(t *testing.T) {
	c := newOSTCache(4)
	if c.touch(0) {
		t.Fatalf("first touch reported warm")
	}
	// Objects 0..7 share one 64-byte line (8 entries x 8 bytes).
	for id := uint64(1); id < objectsPerLine; id++ {
		if !c.touch(id) {
			t.Fatalf("object %d should share line 0", id)
		}
	}
	if c.touch(objectsPerLine) {
		t.Fatalf("object %d lives on a new line", objectsPerLine)
	}
}

func TestOSTCacheCapacityEviction(t *testing.T) {
	c := newOSTCache(2)
	c.touch(0 * objectsPerLine) // line 0
	c.touch(1 * objectsPerLine) // line 1
	c.touch(2 * objectsPerLine) // line 2: evicts line 0 (FIFO)
	if c.touch(0) {
		t.Fatalf("line 0 survived capacity eviction")
	}
	// Touching line 0 again evicted line 1.
	if c.touch(1 * objectsPerLine) {
		t.Fatalf("line 1 survived after ring wrapped")
	}
}

func TestOSTCacheFlush(t *testing.T) {
	c := newOSTCache(8)
	c.touch(0)
	c.flush()
	if c.touch(0) {
		t.Fatalf("flush left line warm")
	}
}

func TestOSTCacheDefaultCapacity(t *testing.T) {
	c := newTestRuntime(t, 64, 1<<16, 1<<16).cache
	if c.capacity != 1<<18 {
		t.Fatalf("default capacity = %d", c.capacity)
	}
}

func TestUncachedGuardsReappearUnderOSTPressure(t *testing.T) {
	// A working set whose OST lines exceed the modeled cache must keep
	// paying uncached guard costs even in steady state.
	rt := newTestRuntime(t, 64, 1<<16, 1<<16)
	rt.cache = newOSTCache(4) // covers 32 objects; heap has 1024
	env := rt.Env()
	p := rt.MustMalloc(1 << 15) // 512 objects
	for i := uint64(0); i < 512; i++ {
		rt.StoreU64(p.Add(i*64), i)
	}
	env.Clock.Reset()
	// Second sweep: everything resident, but OST lines keep missing.
	for i := uint64(0); i < 512; i++ {
		rt.LoadU64(p.Add(i * 64))
	}
	perAccess := env.Clock.Cycles() / 512
	warmCost := env.Costs.FastGuardReadCached + env.Costs.LocalLoadStore
	if perAccess <= warmCost {
		t.Fatalf("per-access %d cycles; OST pressure should exceed warm cost %d",
			perAccess, warmCost)
	}
}
