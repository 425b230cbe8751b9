package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// meterTrace drives two runtimes built alike through one seeded trace:
// ref through the Runtime's own methods, which charge the shared clock as
// they go, and met through a Meter, flushed only where the meter flushes
// itself and where an interp.Backend flushes (Malloc, Free, byte ranges).
// After every access ref's clock and counters must equal met's plus what m
// holds.
type meterTrace struct {
	t        *testing.T
	rng      *rand.Rand
	ref, met *Runtime
	m        Meter
	allocs   []meterAlloc
	// words counts the 8-byte cursor accesses by what they took: the
	// window, the first store into a chunk, a crossing, a straddle, an
	// address before the stream's base.
	words map[string]int
}

type meterAlloc struct {
	p    Ptr
	size uint64
}

// check holds the invariant after step: the shared clock plus the pending
// cycles is the unmetered clock, and likewise for the two counters a meter
// carries; every other counter is equal as it stands.
func (tr *meterTrace) check(step string) {
	tr.t.Helper()
	want := tr.ref.counts.Snapshot()
	got := tr.met.counts.Snapshot()
	got.FastPathGuards += tr.m.fastGuards
	got.BoundaryChecks += tr.m.boundaryChecks
	if got != want {
		tr.t.Fatalf("%s: metered counters + pending = %v, unmetered %v", step, got.String(), want.String())
	}
	if got, want := tr.met.env.Clock.Cycles()+tr.m.cycles, tr.ref.env.Clock.Cycles(); got != want {
		tr.t.Fatalf("%s: metered clock + pending = %d, unmetered %d", step, got, want)
	}
}

// checkEmpty fails unless the meter holds nothing.
func (tr *meterTrace) checkEmpty(step string) {
	tr.t.Helper()
	if tr.m != (Meter{rt: tr.met}) {
		tr.t.Fatalf("%s: meter holds %d cycles, %d fast guards, %d boundary checks; want it flushed",
			step, tr.m.cycles, tr.m.fastGuards, tr.m.boundaryChecks)
	}
}

func (tr *meterTrace) malloc(size uint64) {
	tr.m.Flush()
	p, q := tr.ref.MustMalloc(size), tr.met.MustMalloc(size)
	if p != q {
		tr.t.Fatalf("Malloc(%d): %#x and %#x", size, uint64(p), uint64(q))
	}
	tr.allocs = append(tr.allocs, meterAlloc{p, size})
	tr.check("malloc")
	tr.checkEmpty("malloc")
}

func (tr *meterTrace) free(i int) {
	tr.m.Flush()
	a := tr.allocs[i]
	tr.allocs = append(tr.allocs[:i], tr.allocs[i+1:]...)
	tr.ref.Free(a.p)
	tr.met.Free(a.p)
	tr.check("free")
	tr.checkEmpty("free")
}

// scalar loads or stores the word at byte off of allocation a.
func (tr *meterTrace) scalar(a meterAlloc, off uint64, write bool) {
	p := a.p.Add(off)
	slow := tr.met.counts.SlowPathGuards
	step := fmt.Sprintf("scalar write=%v at %#x", write, uint64(p))
	if write {
		v := tr.rng.Uint64()
		tr.ref.StoreU64(p, v)
		tr.m.StoreU64(p, v)
	} else if x, y := tr.ref.LoadU64(p), tr.m.LoadU64(p); x != y {
		tr.t.Fatalf("%s: unmetered %d, metered %d", step, x, y)
	}
	tr.check(step)
	if tr.met.counts.SlowPathGuards != slow {
		tr.checkEmpty(step + " (slow path)")
	}
}

// byteRange loads or stores n bytes at byte off of allocation a, the way a
// backend's LoadBytes and StoreBytes do: flush, then the runtime's own.
func (tr *meterTrace) byteRange(a meterAlloc, off, n uint64, write bool) {
	tr.m.Flush()
	p := a.p.Add(off)
	x, y := make([]byte, n), make([]byte, n)
	if write {
		tr.rng.Read(x)
		tr.ref.Store(p, x)
		tr.met.Store(p, x)
	} else {
		tr.ref.Load(p, x)
		tr.met.Load(p, y)
		if !bytes.Equal(x, y) {
			tr.t.Fatalf("byte load at %#x+%d differs", uint64(p), n)
		}
	}
	tr.check("byte range")
	tr.checkEmpty("byte range")
}

// walk runs a chunked loop over allocation a from byte skew: elements of
// elemSize bytes, some straddling objects when elemSize does not divide
// the object size, accessed one at a time or a span at a time.
func (tr *meterTrace) walk(a meterAlloc, skew uint64, elemSize int, prefetch bool) {
	es := uint64(elemSize)
	n := (a.size - skew) / es
	if n == 0 {
		return
	}
	base := a.p.Add(skew)
	cr := tr.ref.NewCursor(base, elemSize, prefetch)
	cm := tr.m.NewCursor(base, elemSize, prefetch)
	tr.check("NewCursor")
	tr.checkEmpty("NewCursor")
	x, y := make([]byte, es), make([]byte, es)
	for i := uint64(0); i < n; {
		write := tr.rng.Intn(3) == 0
		step := fmt.Sprintf("element %d of %d (%d B, write=%v)", i, n, es, write)
		// A crossing, or the first store into a chunk, flushes the meter
		// before the element is charged.
		crossings, clean := tr.met.counts.LocalityGuards, !cm.dirty
		flushed := func() bool { return tr.met.counts.LocalityGuards != crossings || clean && cm.dirty }
		if tr.rng.Intn(3) == 0 {
			tr.word(cr, cm, a, base, i*es+uint64(tr.rng.Intn(elemSize-7)), write, step)
			i++
			continue
		}
		if tr.rng.Intn(2) == 0 {
			tr.rng.Read(x)
			copy(y, x)
			cr.AccessAt(i*es, x, write)
			cm.AccessAt(i*es, y, write)
			if !bytes.Equal(x, y) {
				tr.t.Fatalf("%s: cursor reads differ", step)
			}
			tr.check(step)
			if flushed() && (tr.m.fastGuards != 0 || tr.m.boundaryChecks != 1) {
				tr.t.Fatalf("%s: meter holds %d fast guards, %d boundary checks after a flush; want only this element's check",
					step, tr.m.fastGuards, tr.m.boundaryChecks)
			}
			i++
			continue
		}
		max := uint64(1 + tr.rng.Intn(40))
		sr, sm := cr.Span(i, max, write), cm.Span(i, max, write)
		tr.check(step + " span")
		if !bytes.Equal(sr, sm) {
			tr.t.Fatalf("%s: spans differ", step)
		}
		if flushed() {
			tr.checkEmpty(step + " (crossing or first store)")
		}
		if sr == nil { // straddles: the caller accesses it alone
			tr.rng.Read(x)
			copy(y, x)
			cr.AccessAt(i*es, x, write)
			cm.AccessAt(i*es, y, write)
			if !bytes.Equal(x, y) {
				tr.t.Fatalf("%s: straddling reads differ", step)
			}
			tr.check(step + " straddle")
			i++
			continue
		}
		k := 1 + uint64(tr.rng.Intn(len(sr)/elemSize))
		if write {
			tr.rng.Read(sr[:k*es])
			copy(sm, sr[:k*es])
		}
		cr.Consumed(int(k))
		cm.Consumed(int(k))
		tr.check(step + " consumed")
		i += k
	}
	cr.Close()
	cm.Close()
	tr.check("Close")
	tr.checkEmpty("Close")
}

// word is one 8-byte access at byte offset off from the cursors' base
// through the cursor's uint64 forms; or, one time in eight when the walk
// starts past its allocation's first word, a word before the base through
// the guard, as interp's tfmCursor serves an address that falls off the
// stream while its cursor stays open.
func (tr *meterTrace) word(cr, cm *Cursor, a meterAlloc, base Ptr, off uint64, write bool, step string) {
	tr.t.Helper()
	if pre := uint64(base - a.p); pre >= 8 && tr.rng.Intn(8) == 0 {
		tr.scalar(a, uint64(tr.rng.Int63n(int64(pre/8)))*8, write)
		tr.words["pre-base"]++
		return
	}
	step += fmt.Sprintf(" word at +%d", off)
	crossings, clean, checks := tr.met.counts.LocalityGuards, !cm.dirty, tr.m.boundaryChecks
	if write {
		v := tr.rng.Uint64()
		cr.StoreU64At(off, v)
		cm.StoreU64At(off, v)
	} else if x, y := cr.LoadU64At(off), cm.LoadU64At(off); x != y {
		tr.t.Fatalf("%s: unmetered %d, metered %d", step, x, y)
	}
	tr.check(step)
	at := base.HeapOffset() + off
	if at < cm.lo || at+8 > cm.hi { // straddles two objects: the guard served it
		tr.words["straddle"]++
		return
	}
	if write && (!cm.dirty || !tr.met.pool.Meta(cm.obj).Dirty()) {
		tr.t.Fatalf("%s: a store into the chunk left its dirty bit clear", step)
	}
	switch {
	case tr.met.counts.LocalityGuards != crossings:
		tr.words["crossing"]++
	case write && clean:
		tr.words["first store"]++
	case write:
		tr.words["dirty store"]++
	default:
		tr.words["window read"]++
	}
	if tr.met.counts.LocalityGuards != crossings || write && clean {
		// A crossing or the first store into a chunk flushes the meter
		// before the word is charged.
		if tr.m.fastGuards != 0 || tr.m.boundaryChecks != 1 {
			tr.t.Fatalf("%s: meter holds %d fast guards, %d boundary checks after a flush; want only this word's check",
				step, tr.m.fastGuards, tr.m.boundaryChecks)
		}
	} else if tr.m.boundaryChecks != checks+1 {
		tr.t.Fatalf("%s: %d boundary checks pending before, %d after; the window charges one and flushes nothing",
			step, checks, tr.m.boundaryChecks)
	}
}

// straddle loads or stores the 8 bytes 4 before the first object boundary
// inside allocation a, reporting false when a holds none: a word across
// two objects takes the byte path, which guards each object, so both
// runtimes charge two guards for it.
func (tr *meterTrace) straddle(a meterAlloc, write bool) bool {
	objSize := uint64(tr.met.objSize)
	start := a.p.HeapOffset()
	b := (start/objSize + 1) * objSize
	if b-4 < start || b+4 > start+a.size {
		return false
	}
	guards := func(r *Runtime) uint64 { return r.counts.FastPathGuards + r.counts.SlowPathGuards }
	ref, met := guards(tr.ref), guards(tr.met)+tr.m.fastGuards
	tr.scalar(a, b-4-start, write)
	if r, m := guards(tr.ref)-ref, guards(tr.met)+tr.m.fastGuards-met; r != 2 || m != 2 {
		tr.t.Fatalf("8 bytes across the boundary at %#x: %d guards unmetered, %d metered; want 2 each", b, r, m)
	}
	tr.words["scalar straddle"]++
	return true
}

func (tr *meterTrace) run(ops int) {
	for len(tr.allocs) < 4 {
		tr.malloc(uint64(64 + tr.rng.Intn(8<<10)))
	}
	for op := 0; op < ops; op++ {
		a := tr.allocs[tr.rng.Intn(len(tr.allocs))]
		switch k := tr.rng.Intn(20); {
		case k < 10:
			if k == 9 && tr.straddle(a, tr.rng.Intn(2) == 0) {
				continue
			}
			tr.scalar(a, uint64(tr.rng.Int63n(int64(a.size/8)))*8, k < 4)
		case k < 13:
			off := uint64(tr.rng.Int63n(int64(a.size)))
			tr.byteRange(a, off, 1+uint64(tr.rng.Int63n(int64(a.size-off))), k == 12)
		case k < 17:
			tr.walk(a, uint64(tr.rng.Int63n(int64(a.size/2)))&^7, []int{8, 24, 40}[tr.rng.Intn(3)], k < 16)
		case k < 18:
			tr.free(tr.rng.Intn(len(tr.allocs)))
			fallthrough
		default:
			tr.malloc(uint64(64 + tr.rng.Intn(8<<10)))
		}
	}
}

// histograms lists every latency histogram a runtime observes into,
// named, with the Env's own.
func histograms(r *Runtime) map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot)
	for name, lat := range map[string]*sim.Latencies{"runtime": r.lat, "env": r.env.Lat()} {
		v := reflect.ValueOf(lat).Elem()
		for i := 0; i < v.NumField(); i++ {
			if h := v.Field(i).Interface().(*obs.Histogram); h != nil {
				out[name+"."+v.Type().Field(i).Name] = h.Snapshot()
			}
		}
	}
	return out
}

// TestMeterMatchesUnmetered is the meter's differential oracle: a seeded
// trace of scalar loads and stores (some across two objects), byte ranges, chunked loops (straddling
// elements among them, and the cursor's 8-byte forms at any byte of an
// element) and Malloc/Free, at a budget that forces misses,
// evictions, prefetches and refaults, leaves a metered runtime exactly
// where the unmetered one is — after every access, once the pending
// charges are counted in; the meter is empty after every slow path and
// crossing; and at the end, with the meter flushed, every counter and
// every latency histogram is equal.
func TestMeterMatchesUnmetered(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, newRuntime func(Config) (*Runtime, error)) {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
				build := func() *Runtime {
					rt, err := newRuntime(Config{Env: sim.NewEnv(), ObjectSize: 256, HeapSize: 1 << 20, LocalBudget: 16 * 256})
					if err != nil {
						t.Fatal(err)
					}
					return rt
				}
				tr := &meterTrace{t: t, rng: rand.New(rand.NewSource(seed)), ref: build(), met: build(), words: map[string]int{}}
				tr.m = tr.met.NewMeter()
				tr.run(400)
				tr.m.Flush()
				tr.check("end")
				if a, b := tr.ref.env.Counters.Snapshot(), tr.met.env.Counters.Snapshot(); a != b {
					t.Fatalf("env counters: unmetered %v, metered %v", a.String(), b.String())
				}
				if a, b := histograms(tr.ref), histograms(tr.met); !reflect.DeepEqual(a, b) {
					t.Fatalf("latency histograms differ:\nunmetered %v\nmetered   %v", a, b)
				}
				c := tr.met.env.Counters
				for name, v := range map[string]uint64{
					"remote fetches": c.RemoteFetches, "evacuations": c.Evacuations,
					"prefetches": c.PrefetchIssued, "refaults": c.Refaults,
					"fast guards": tr.met.counts.FastPathGuards, "boundary checks": tr.met.counts.BoundaryChecks,
				} {
					if v == 0 {
						t.Errorf("the trace made no %s", name)
					}
				}
				for _, kind := range []string{"window read", "first store", "dirty store", "crossing", "straddle", "pre-base", "scalar straddle"} {
					if tr.words[kind] == 0 {
						t.Errorf("the trace made no %s among its 8-byte accesses (%v)", kind, tr.words)
					}
				}
			})
		}
	})
}

// TestMetersConcurrent: two goroutines, each with its own meter, charge one
// runtime over disjoint resident arrays while a reader samples the
// counters and the clock (run under -race). Once both have flushed, the
// clock and every counter are what the two runs made alone, one after the
// other, sum to — stripe-lock waits aside, which only concurrency can
// cause.
func TestMetersConcurrent(t *testing.T) {
	const words = 4096 // per goroutine: 16 objects of 2 KiB
	setup := func() (*Runtime, [2]Ptr) {
		rt := newTestRuntime(t, 2048, 1<<18, 1<<18)
		var arrs [2]Ptr
		for g := range arrs {
			arrs[g] = rt.MustMalloc(words * 8)
			for i := uint64(0); i < words; i++ {
				rt.StoreU64(arrs[g].Add(i*8), i)
			}
		}
		rt.env.ResetStats()
		rt.env.Clock.Reset()
		return rt, arrs
	}
	work := func(rt *Runtime, p Ptr, seed int64) {
		m := rt.NewMeter()
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			for k := 0; k < 200; k++ {
				q := p.Add(uint64(rng.Intn(words)) * 8)
				if v := m.LoadU64(q); rng.Intn(4) == 0 {
					m.StoreU64(q, v+1)
				}
			}
			c := m.NewCursor(p, 8, false)
			for i := uint64(0); i < words; i++ {
				c.StoreU64(i, c.LoadU64(i)+1)
			}
			c.Close()
		}
		m.Flush()
	}
	total := func(rt *Runtime) (uint64, sim.Counters) {
		c := rt.env.Counters.Snapshot()
		c.StripeContention = 0
		return rt.env.Clock.Cycles(), c
	}

	// The two runs made alone, one after the other.
	rt, arrs := setup()
	for g := range arrs {
		work(rt, arrs[g], int64(g))
	}
	wantCycles, want := total(rt)

	rt, arrs = setup()
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = rt.env.Counters.Snapshot()
			if c := rt.env.Clock.Cycles(); c < last {
				t.Errorf("clock went back from %d to %d", last, c)
			} else {
				last = c
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			work(rt, arrs[g], int64(g))
		}(g)
	}
	wg.Wait()
	close(done)
	reader.Wait()
	if cycles, got := total(rt); cycles != wantCycles || got != want {
		t.Fatalf("concurrent run: %d cycles, %v; the solo runs sum to %d cycles, %v",
			cycles, got.String(), wantCycles, want.String())
	}
}
