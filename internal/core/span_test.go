package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// chunkedCase is one array walked by a chunked loop: far larger than local
// memory, so the walk fetches, prefetches, evicts and stamps ghosts — every
// place the simulated clock is read.
type chunkedCase struct {
	objSize  int
	elemSize int
	skew     uint64 // base offset within its first object
	n        uint64
	write    bool
}

func (tc chunkedCase) String() string {
	return fmt.Sprintf("obj%d/elem%d/skew%d/write=%v", tc.objSize, tc.elemSize, tc.skew, tc.write)
}

// setup builds a runtime holding a quarter of the array, fills the array
// through scalar guards and evacuates it, so every walk starts cold and
// from the same state.
func (tc chunkedCase) setup(t *testing.T) (*Runtime, Ptr) {
	t.Helper()
	bytes := tc.n*uint64(tc.elemSize) + tc.skew
	rt, err := NewRuntime(Config{
		Env:         sim.NewEnv(),
		ObjectSize:  tc.objSize,
		HeapSize:    2 * bytes,
		LocalBudget: bytes / 4 &^ uint64(tc.objSize-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rt.MustMalloc(uint64(tc.objSize) + bytes)
	p = p.Add(uint64(tc.objSize) - p.HeapOffset()%uint64(tc.objSize) + tc.skew)
	elem := make([]byte, tc.elemSize)
	for i := uint64(0); i < tc.n; i++ {
		fillElem(elem, i)
		rt.Store(p.Add(i*uint64(tc.elemSize)), elem)
	}
	rt.EvacuateAll()
	rt.Env().Reset()
	return rt, p
}

func fillElem(elem []byte, i uint64) {
	for j := range elem {
		elem[j] = byte(i + uint64(j)*7)
	}
}

// perElement walks elements [0, stop] with one cursor call per element.
func (tc chunkedCase) perElement(rt *Runtime, p Ptr, stop uint64) (sum uint64) {
	cur := rt.NewCursor(p, tc.elemSize, true)
	defer cur.Close()
	elem := make([]byte, tc.elemSize)
	es := uint64(tc.elemSize)
	for i := uint64(0); i <= stop; i++ {
		if tc.write {
			fillElem(elem, i+1)
			cur.AccessAt(i*es, elem, true)
			continue
		}
		cur.AccessAt(i*es, elem, false)
		for _, b := range elem {
			sum += uint64(b)
		}
	}
	return sum
}

// spans walks the same elements a span at a time, falling back to AccessAt
// for an element that straddles an object boundary.
func (tc chunkedCase) spans(rt *Runtime, p Ptr, stop uint64) (sum uint64) {
	cur := rt.NewCursor(p, tc.elemSize, true)
	defer cur.Close()
	elem := make([]byte, tc.elemSize)
	es := uint64(tc.elemSize)
	for i := uint64(0); i <= stop; {
		span := cur.Span(i, stop+1-i, tc.write)
		if span == nil {
			if tc.write {
				fillElem(elem, i+1)
				cur.AccessAt(i*es, elem, true)
			} else {
				cur.AccessAt(i*es, elem, false)
				for _, b := range elem {
					sum += uint64(b)
				}
			}
			i++
			continue
		}
		k := uint64(len(span)) / es
		for e := uint64(0); e < k; e++ {
			if tc.write {
				fillElem(span[e*es:(e+1)*es], i+e+1)
				continue
			}
			for _, b := range span[e*es : (e+1)*es] {
				sum += uint64(b)
			}
		}
		cur.Consumed(int(k))
		i += k
	}
	return sum
}

type walkResult struct {
	cycles   uint64
	counters sim.Counters
	sum      uint64
}

func (tc chunkedCase) run(t *testing.T, walk func(*Runtime, Ptr, uint64) uint64, stop uint64) walkResult {
	t.Helper()
	rt, p := tc.setup(t)
	sum := walk(rt, p, stop)
	res := walkResult{cycles: rt.Env().Clock.Cycles(), counters: rt.Env().Counters.Snapshot(), sum: sum}
	if n := rt.Pool().PinnedObjects(); n != 0 {
		t.Errorf("%v: %d objects still pinned after Close", tc, n)
	}
	if tc.write {
		// What the walk stored must be what scalar guards read back.
		elem, want := make([]byte, tc.elemSize), make([]byte, tc.elemSize)
		for i := uint64(0); i <= stop; i++ {
			rt.Load(p.Add(i*uint64(tc.elemSize)), elem)
			fillElem(want, i+1)
			if string(elem) != string(want) {
				t.Fatalf("%v: element %d = %v after the walk, want %v", tc, i, elem, want)
			}
		}
	}
	return res
}

// TestSpanCycleIdentity is the differential half of the refactoring oracle:
// the span loop must leave the simulated clock and every counter exactly
// where the per-element loop leaves them, wherever the loop stops.
func TestSpanCycleIdentity(t *testing.T) {
	var cases []chunkedCase
	for _, write := range []bool{false, true} {
		cases = append(cases,
			chunkedCase{objSize: 256, elemSize: 8, skew: 0, n: 4096, write: write},
			chunkedCase{objSize: 256, elemSize: 8, skew: 24, n: 4096, write: write},
			// 12 does not divide 64: every sixth element or so straddles.
			chunkedCase{objSize: 64, elemSize: 12, skew: 0, n: 1000, write: write},
			chunkedCase{objSize: 64, elemSize: 12, skew: 20, n: 1000, write: write},
		)
	}
	for _, tc := range cases {
		perObj := uint64(tc.objSize / tc.elemSize)
		stops := []uint64{
			0,            // first element
			perObj / 2,   // mid-chunk
			perObj - 1,   // around the end of the first chunk ...
			perObj,       // ... and the start of the second
			7*perObj - 1, // the same, deep into eviction
			7 * perObj,
			tc.n - 1, // the whole array
		}
		for _, stop := range stops {
			a := tc.run(t, tc.perElement, stop)
			b := tc.run(t, tc.spans, stop)
			if a.cycles != b.cycles {
				t.Errorf("%v stop %d: cycles per-element %d, spans %d", tc, stop, a.cycles, b.cycles)
			}
			if a.counters != b.counters {
				t.Errorf("%v stop %d: counters differ\nper-element: %s\nspans:       %s",
					tc, stop, a.counters.String(), b.counters.String())
			}
			if a.sum != b.sum {
				t.Errorf("%v stop %d: sums differ: per-element %d, spans %d", tc, stop, a.sum, b.sum)
			}
			if tc.elemSize == 12 && stop > perObj && a.counters.Guards() == 0 {
				t.Errorf("%v stop %d: no straddler fell back to a scalar guard", tc, stop)
			}
			if stop == tc.n-1 && a.counters.RemoteFetches == 0 {
				t.Errorf("%v: the full walk fetched nothing; the case exercises no clock read", tc)
			}
		}
	}
}

// TestChunkedLoopCostModel pins the charge arithmetic to the cost model
// rather than to another code path: an all-resident chunked loop costs one
// ChunkInit, one locality guard per object and one boundary check plus one
// load per element.
func TestChunkedLoopCostModel(t *testing.T) {
	const n, objSize = 4096, 256
	tc := chunkedCase{objSize: objSize, elemSize: 8, n: n}
	for name, walk := range map[string]func(*Runtime, Ptr, uint64) uint64{"per-element": tc.perElement, "spans": tc.spans} {
		rt := newTestRuntime(t, objSize, 1<<20, 1<<20)
		p := rt.MustMalloc(n * 8)
		for i := uint64(0); i < n; i++ {
			rt.StoreU64(p.Add(i*8), i)
		}
		env := rt.Env()
		env.Reset()
		walk(rt, p, n-1)
		c := env.Costs
		objs := uint64(n * 8 / objSize)
		want := c.ChunkInit + objs*c.LocalityInvariantPin + n*(c.BoundaryCheck+c.LocalLoadStore)
		if got := env.Clock.Cycles(); got != want {
			t.Errorf("%s: %d cycles, cost model says %d", name, got, want)
		}
		if got := env.Counters.BoundaryChecks; got != n {
			t.Errorf("%s: BoundaryChecks = %d, want %d", name, got, n)
		}
		if got := env.Counters.LocalityGuards; got != objs {
			t.Errorf("%s: LocalityGuards = %d, want %d", name, got, objs)
		}
	}
}

// TestSpanWriteMarksDirtyFirst: the dirty bit is set before Span hands the
// bytes out, including when the chunk was entered by a read, and stores
// through the span survive eviction.
func TestSpanWriteMarksDirtyFirst(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(64)
	rt.StoreU64(p, 1)
	rt.EvacuateAll()
	id, _ := p.object(6)

	cur := rt.NewCursor(p, 8, false)
	cur.LoadU64(0) // enters the chunk clean
	if rt.Pool().Meta(id).Dirty() {
		t.Fatalf("object dirty after a read")
	}
	span := cur.Span(1, 7, true)
	if !rt.Pool().Meta(id).Dirty() {
		t.Fatalf("Span(write) returned bytes of a clean object")
	}
	if len(span) != 7*8 {
		t.Fatalf("Span(1, 7) = %d bytes, want %d", len(span), 7*8)
	}
	for o := 0; o < len(span); o += 8 {
		binary.LittleEndian.PutUint64(span[o:], 40+uint64(o/8))
	}
	cur.Consumed(7)
	cur.Close()
	rt.EvacuateAll()
	for i := uint64(1); i < 8; i++ {
		if got := rt.LoadU64(p.Add(i * 8)); got != 39+i {
			t.Fatalf("element %d = %d after eviction, want %d", i, got, 39+i)
		}
	}
}

// TestSpanStopsAtMaxAndObjectEnd covers the two bounds on a span's length.
func TestSpanStopsAtMaxAndObjectEnd(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(256)
	cur := rt.NewCursor(p, 8, false)
	defer cur.Close()
	if got := len(cur.Span(0, 100, false)); got != 64 {
		t.Errorf("Span to the object's end = %d bytes, want 64", got)
	}
	if got := len(cur.Span(3, 2, false)); got != 16 {
		t.Errorf("Span capped by max = %d bytes, want 16", got)
	}
	if got := len(cur.Span(15, 100, false)); got != 8 {
		t.Errorf("Span from an object's last element = %d bytes, want 8", got)
	}
}

func TestCursorEveryAccessorPanicsAfterClose(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	p := rt.MustMalloc(64)
	buf := make([]byte, 8)
	for name, use := range map[string]func(*Cursor){
		"LoadU64":    func(c *Cursor) { c.LoadU64(0) },
		"StoreU64":   func(c *Cursor) { c.StoreU64(0, 1) },
		"LoadU64At":  func(c *Cursor) { c.LoadU64At(8) },
		"StoreU64At": func(c *Cursor) { c.StoreU64At(8, 1) },
		"AccessAt":   func(c *Cursor) { c.AccessAt(60, buf, true) }, // straddles, too
		"Span":       func(c *Cursor) { c.Span(0, 8, false) },
	} {
		cur := rt.NewCursor(p, 8, false)
		cur.LoadU64(0)
		cur.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a closed cursor did not panic", name)
				}
			}()
			use(cur)
		}()
	}
	if n := rt.Pool().PinnedObjects(); n != 0 {
		t.Errorf("%d objects pinned after every cursor closed", n)
	}
}

// TestScalarGuardAllocFree and TestCursorLoadAllocFree gate the layer that
// compiled programs and farmem call, on TrackFM's runtime and on the
// library runtime the AIFM comparator runs on: a guarded access to a
// resident object — a word inside one object, or across two — and a
// chunked access in steady state allocate nothing, through the Runtime's
// own methods and through a Meter alike.
func TestScalarGuardAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachRuntime(t, func(t *testing.T, newRuntime func(Config) (*Runtime, error)) {
		rt, err := newRuntime(Config{Env: sim.NewEnv(), ObjectSize: 4096, HeapSize: 1 << 20, LocalBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		p := rt.MustMalloc(1 << 16)
		for i := uint64(0); i < 1<<13; i++ {
			rt.StoreU64(p.Add(i*8), i)
		}
		var i, sink uint64
		if n := testing.AllocsPerRun(1000, func() {
			sink += rt.LoadU64(p.Add(i % (1 << 13) * 8))
			rt.StoreU64(p.Add(i%(1<<13)*8), sink)
			i += 521
		}); n != 0 {
			t.Fatalf("resident LoadU64+StoreU64 allocated %v times per run, want 0", n)
		}
		m := rt.NewMeter()
		if n := testing.AllocsPerRun(1000, func() {
			sink += m.LoadU64(p.Add(i % (1 << 13) * 8))
			m.StoreU64(p.Add(i%(1<<13)*8), sink)
			i += 521
		}); n != 0 {
			t.Fatalf("resident Meter.LoadU64+StoreU64 allocated %v times per run, want 0", n)
		}
		// 8 bytes across two objects take the byte path, not the word guard.
		straddle := func() Ptr { return p.Add((1+i%15)*4096 - 4) }
		if n := testing.AllocsPerRun(1000, func() {
			sink += rt.LoadU64(straddle())
			rt.StoreU64(straddle(), sink)
			i++
		}); n != 0 {
			t.Fatalf("resident LoadU64+StoreU64 across two objects allocated %v times per run, want 0", n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			sink += m.LoadU64(straddle())
			m.StoreU64(straddle(), sink)
			i++
		}); n != 0 {
			t.Fatalf("resident Meter.LoadU64+StoreU64 across two objects allocated %v times per run, want 0", n)
		}
		m.Flush()
	})
}

func TestCursorLoadAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachRuntime(t, func(t *testing.T, newRuntime func(Config) (*Runtime, error)) {
		rt, err := newRuntime(Config{Env: sim.NewEnv(), ObjectSize: 4096, HeapSize: 1 << 20, LocalBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		p := rt.MustMalloc(1 << 16)
		m := rt.NewMeter()
		for name, cur := range map[string]*Cursor{
			"Runtime": rt.NewCursor(p, 8, true),
			"Meter":   m.NewCursor(p, 8, true),
		} {
			var i, sink uint64
			if n := testing.AllocsPerRun(1000, func() {
				for k := 0; k < 600; k++ { // more than one object per run
					sink += cur.LoadU64(i % (1 << 13))
					cur.StoreU64(i%(1<<13), sink)
					sink += cur.LoadU64At(i%(1<<13)*8 + 4) // straddles every 512th
					cur.StoreU64At(i%(1<<13)*8+4, sink)
					i++
				}
			}); n != 0 {
				t.Fatalf("steady-state Cursor.LoadU64+StoreU64 and LoadU64At+StoreU64At from %s.NewCursor allocated %v times per run, want 0", name, n)
			}
			cur.Close()
		}
	})
}

// forEachRuntime runs f as a subtest on each runtime constructor.
func forEachRuntime(t *testing.T, f func(t *testing.T, newRuntime func(Config) (*Runtime, error))) {
	t.Run("trackfm", func(t *testing.T) { f(t, NewRuntime) })
	t.Run("library", func(t *testing.T) { f(t, NewLibraryRuntime) })
}
