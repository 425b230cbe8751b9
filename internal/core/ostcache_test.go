package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// refOSTCache is the model ostCache must agree with touch by touch: a
// set of line tags with FIFO replacement, as a map and a ring.
type refOSTCache struct {
	resident map[uint64]struct{}
	order    []uint64
	head     int
}

func newRefOSTCache(capacityLines int) *refOSTCache {
	return &refOSTCache{resident: map[uint64]struct{}{}, order: make([]uint64, capacityLines)}
}

func (c *refOSTCache) touch(id uint64) bool {
	line := id / objectsPerLine
	if _, ok := c.resident[line]; ok {
		return true
	}
	if len(c.resident) >= len(c.order) {
		delete(c.resident, c.order[c.head])
		c.order[c.head] = line
		c.head = (c.head + 1) % len(c.order)
	} else {
		c.order[(c.head+len(c.resident))%len(c.order)] = line
	}
	c.resident[line] = struct{}{}
	return false
}

func (c *refOSTCache) flush() {
	c.resident = map[uint64]struct{}{}
	c.head = 0
}

func TestOSTCacheMatchesReference(t *testing.T) {
	for _, tc := range []struct{ objects, capacity int }{
		{64, 1 << 18},  // 8 lines, all fit: no ring
		{64, 8},        // exactly fits
		{61, 7},        // 8 lines (the last one short), one too many
		{1000, 16},     // heavy eviction
		{4096, 1},      // a one-line cache
		{4096, 1 << 9}, // 512 lines of 512: the boundary again
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := newOSTCache(tc.objects, tc.capacity), newRefOSTCache(tc.capacity)
			id := uint64(0)
			for i := 0; i < 20000; i++ {
				switch r := rng.Intn(1000); {
				case r == 0:
					got.flush()
					want.flush()
					continue
				case r < 300: // sequential, as a streaming loop
					id = (id + 1) % uint64(tc.objects)
				case r < 500: // first or last entry of a line
					line := uint64(rng.Intn((tc.objects + objectsPerLine - 1) / objectsPerLine))
					id = line*objectsPerLine + uint64(rng.Intn(2))*(objectsPerLine-1)
					if id >= uint64(tc.objects) {
						id = uint64(tc.objects) - 1
					}
				default:
					id = uint64(rng.Intn(tc.objects))
				}
				if g, w := got.touch(id), want.touch(id); g != w {
					t.Fatalf("objects=%d capacity=%d seed=%d touch #%d of id %d: warm=%v, reference says %v",
						tc.objects, tc.capacity, seed, i, id, g, w)
				}
			}
		}
	}
}

// Run under -race: when every line fits, each line is reported cold to
// exactly one of the goroutines racing to touch it.
func TestOSTCacheConcurrentColdOnce(t *testing.T) {
	const objects, workers = 1 << 12, 8
	c := newOSTCache(objects, ostCacheLines)
	var cold [objects / objectsPerLine]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(objects) {
				if !c.touch(uint64(i)) {
					cold[i/objectsPerLine].Add(1)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	for line := range cold {
		if n := cold[line].Load(); n != 1 {
			t.Fatalf("line %d reported cold %d times, want exactly once", line, n)
		}
	}
}

func TestOSTCacheLineSharing(t *testing.T) {
	c := newOSTCache(2*objectsPerLine, 4)
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
	c := newOSTCache(3*objectsPerLine, 2)
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
	c := newOSTCache(objectsPerLine, 8)
	c.touch(0)
	c.flush()
	if c.touch(0) {
		t.Fatalf("flush left line warm")
	}
}

func TestOSTCacheDefaultCapacity(t *testing.T) {
	// A runtime's model holds 1<<18 lines (~16 MB of OST): a sweep of
	// that many leaves the first one warm, one line more evicts it.
	if ostCacheLines != 1<<18 {
		t.Fatalf("default capacity = %d lines", ostCacheLines)
	}
	c := newOSTCache((ostCacheLines+1)*objectsPerLine, ostCacheLines)
	for line := uint64(0); line < ostCacheLines; line++ {
		c.touch(line * objectsPerLine)
	}
	if !c.touch(0) {
		t.Fatalf("line 0 cold after touching exactly the capacity")
	}
	c.touch(ostCacheLines * objectsPerLine)
	if c.touch(0) {
		t.Fatalf("line 0 still warm after capacity+1 distinct lines")
	}
}

func TestUncachedGuardsReappearUnderOSTPressure(t *testing.T) {
	// A working set whose OST lines exceed the modeled cache must keep
	// paying uncached guard costs even in steady state.
	rt := newTestRuntime(t, 64, 1<<16, 1<<16)
	rt.cache = newOSTCache(1024, 4) // covers 32 objects; heap has 1024
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

// TestNewRuntimeFootprint is the gate against a structure sized by what
// the model could hold rather than by the heap. The arena — one object's
// bytes per slot, reserve floor included — is the local budget itself;
// everything else a 64-object runtime allocates is bookkeeping: ~64 KB,
// most of it the pool's stripes and the env's metric registry.
func TestNewRuntimeFootprint(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const objSize, objects, bound = 4096, 64, 256 << 10
	var arena uint64
	newRuntime := func() {
		rt, err := NewRuntime(Config{
			Env: sim.NewEnv(), ObjectSize: objSize,
			HeapSize: objects * objSize, LocalBudget: objects * objSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := rt.Pool()
		arena = uint64(p.NumSlots()+p.ReserveFloor()) * objSize
		p.Close()
	}
	newRuntime() // one-time initialisation is not the runtime's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		newRuntime()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	rest := int64(per) - int64(arena)
	t.Logf("NewRuntime for a %d-object heap allocates %d bytes: a %d-byte arena and %d bytes besides",
		objects, per, arena, rest)
	if rest > bound {
		t.Fatalf("NewRuntime for a %d-object heap allocates %d bytes besides its %d-byte arena, want <= %d",
			objects, rest, arena, bound)
	}
}
