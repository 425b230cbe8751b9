package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"trackfm/internal/aifm"
	"trackfm/internal/fabric"
	"trackfm/internal/modeltest"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// The runtime's adapter to the model harness (internal/modeltest): seeded
// traces of mallocs, frees, guarded accesses and chunked walks run on a
// Runtime — TrackFM's, or the library runtime the AIFM comparator runs on —
// and on the flat heap side by side, down to the guard. Every read must
// match the heap; a failed access must have moved exactly the bytes of the
// objects before the one it faulted on (access); the allocator, the guards
// and the cursors are held to their invariants as each op runs and between
// ops (Check); and at quiesce the heap reads back through the guard and
// from the far node. On a fault-free config every op also runs on a
// metered twin, which must charge exactly what the runtime charged.

// Every config's runtime: a 1 MiB heap of 256-byte objects over 16 slots,
// two wire attempts an op, 2000 ops a trace.
const coreObj, coreSlots, coreHeap = 256, 16, 1 << 20

// coreModel's ops: a malloc asks for 0 B to 8 KiB (a quarter of them at
// most 8 B, a quarter at most an object); the other ops pick a live
// allocation by ID, an offset in it by Off and a length by N, and Val is
// what a store writes or a walk's seed.
var coreModel = modeltest.Model{
	Pkg:     "internal/core",
	Ops:     []string{"malloc", "free", "load-u64", "store-u64", "load", "store", "walk", "evacuate-all", "reset-stats"},
	Weights: []int{5, 3, 12, 12, 6, 6, 18, 1, 1},
	Draw: func(src modeltest.Source, o *modeltest.Op) {
		o.ID, o.Off, o.Val = src.Intn(1<<16), src.Intn(1<<16), src.Uint64()
		if o.N = src.Intn(1 << 16); o.Kind == "malloc" {
			o.N %= []int{9, coreObj + 1, 8<<10 + 1, 8<<10 + 1}[src.Intn(4)]
		}
	},
	Len: 2000, Heap: coreHeap, Backend: fabric.BackendTCP, Retries: 2,
}

// coreEnds are the panics an access may fail with: a guard's or a
// crossing's whose fetch failed for good (fetchFailed), which names the
// object. The objects are the units a failed access moved whole or not at
// all, and a failed write is judged by what a read of the range finds
// (peek).
var coreEnds = []string{"unrecoverable remote fetch for object "}

// The states every config must reach: the counts and the kinds of 8-byte
// access the metered twin needs to mean anything (meterStates), and what
// the allocator, the guards and the cursors do.
var meterStates = []string{
	"remote fetch", "evacuation", "prefetch", "refault", "fast guard", "boundary check",
	"window read", "first store", "dirty store", "crossing", "straddle", "pre-base", "scalar straddle"}

var coreStates = append(slices.Clip(meterStates),
	"malloc of 0 bytes", "free of a 0-byte allocation", "small allocations share an object",
	"small allocation moved to the next object", "free released an object", "byte range across objects",
	"guarded access beside a held chunk evicted an object", "first store by a span")

type alloc struct {
	p Ptr
	n uint64 // as asked: Malloc(0) takes one byte
}

func (a alloc) size() uint64 { return max(a.n, 1) }

// side is one runtime as a trace drives it: the guard layer charging the
// shared clock (a nil meter, as the Runtime's own methods do), or, the
// metered twin, charging a meter.
type side struct {
	rt    *Runtime
	meter *Meter
}

// guards and checks count the guards and the boundary checks the side
// ran, pending ones included.
func (s side) guards() uint64 {
	return s.rt.counts.FastPathGuards + s.rt.counts.SlowPathGuards + s.pending().fastGuards
}

func (s side) checks() uint64 { return s.rt.counts.BoundaryChecks + s.pending().boundaryChecks }

// pending is what the side's meter holds: nothing, unmetered.
func (s side) pending() (pending Meter) {
	if s.meter != nil {
		pending = *s.meter
	}
	return pending
}

type model struct {
	r       *modeltest.Rig
	rt      *Runtime
	library bool
	live    []alloc // in the order Malloc returned them
	top     uint64  // the end of the highest allocation yet

	// The runtime, then, on a fault-free config, its metered twin: a
	// runtime built alike on an env and link of its own, whose guards and
	// cursors charge a meter. The twin flushes where a compiled program's
	// backend does: before a malloc, a free, a byte range and any other
	// call outside the guard layer.
	sides []side
	twin  *Meter
}

func newModel(r *modeltest.Rig, library bool) (*model, error) {
	build := map[bool]func(Config) (*Runtime, error){false: NewRuntime, true: NewLibraryRuntime}[library]
	cfg := Config{Env: r.Env, ObjectSize: coreObj, HeapSize: coreHeap, LocalBudget: coreSlots * coreObj, RemoteConfig: r.Remote()}
	rt, err := build(cfg)
	m := &model{r: r, rt: rt, library: library, sides: []side{{rt: rt}}}
	if err == nil && !r.Faulty() {
		cfg.Env = sim.NewEnv()
		cfg.RemoteConfig = fabric.RemoteConfig{Transport: fabric.NewFaultLink(fabric.NewSimLink(cfg.Env, coreModel.Backend), fabric.FaultConfig{}),
			RemoteRetries: coreModel.Retries}
		tw, terr := build(cfg)
		m.twin, err = &Meter{rt: tw}, terr
		m.sides = append(m.sides, side{tw, m.twin})
	}
	for _, s := range coreStates {
		r.Note(s, false, true)
	}
	r.Note("failed guard", false, r.Faulty())
	r.Note("failed crossing", false, r.Faulty())
	return m, err
}

// peek reads the heap bytes [off, off+n) through the guard, again while the
// fetch fails.
func (m *model) peek(off, n int) ([]byte, error) {
	buf := make([]byte, n)
	return buf, m.r.Retry(func() error {
		m.rt.Load(ptrBase+Ptr(off), buf)
		return nil
	})
}

// metered holds the twin to the runtime: the twin's clock plus the
// meter's pending cycles is the runtime's clock, and likewise for the two
// counters a meter carries; every other counter is equal as it stands.
func (m *model) metered() error {
	if m.twin == nil {
		return nil
	}
	want, got := m.rt.counts.Snapshot(), m.twin.rt.counts.Snapshot()
	got.FastPathGuards += m.twin.fastGuards
	got.BoundaryChecks += m.twin.boundaryChecks
	if got != want {
		return fmt.Errorf("metered counters + pending = %v, unmetered %v", got.String(), want.String())
	}
	if got, want := m.twin.rt.env.Clock.Cycles()+m.twin.cycles, m.rt.env.Clock.Cycles(); got != want {
		return fmt.Errorf("metered clock + pending = %d, unmetered %d", got, want)
	}
	return nil
}

// flushed fails unless the meter holds nothing: after a slow path, a
// crossing, a first store into a chunk, NewCursor, Close or a flush.
func (m *model) flushed() error {
	if m.twin != nil && *m.twin != (Meter{rt: m.twin.rt}) {
		return fmt.Errorf("meter holds %d cycles, %d fast guards, %d boundary checks; want it flushed",
			m.twin.cycles, m.twin.fastGuards, m.twin.boundaryChecks)
	}
	return nil
}

// pick returns the live allocation at index id, or the first after it of
// at least min bytes.
func (m *model) pick(id int, min uint64) (alloc, bool) {
	for k := range m.live {
		if a := m.live[(id+k)%len(m.live)]; a.size() >= min {
			return a, true
		}
	}
	return alloc{}, false
}

func (m *model) Step(o modeltest.Op) error {
	e0, g0, had := m.rt.env.Counters.Snapshot(), m.rt.counts.Snapshot(), len(m.live)
	var err error
	switch o.Kind {
	case "malloc":
		err = m.malloc(uint64(o.N))
	case "free":
		err = m.free(o)
	case "load-u64", "store-u64", "load", "store":
		err = m.guarded(o)
	case "walk":
		err = m.walk(o)
	case "evacuate-all":
		m.twin.Flush()
		for _, s := range m.sides {
			s.rt.EvacuateAll()
		}
	case "reset-stats":
		m.twin.Flush()
		m.r.ResetStats()
		if m.twin != nil {
			m.twin.rt.env.ResetStats()
		}
		return nil
	}
	e, g := m.rt.env.Counters.Snapshot(), m.rt.counts.Snapshot()
	for state, reached := range map[string]bool{
		"remote fetch": e.RemoteFetches > e0.RemoteFetches, "evacuation": e.Evacuations > e0.Evacuations,
		"prefetch": e.PrefetchIssued > e0.PrefetchIssued, "refault": e.Refaults > e0.Refaults,
		"fast guard": g.FastPathGuards > g0.FastPathGuards, "boundary check": g.BoundaryChecks > g0.BoundaryChecks,
	} {
		m.r.Note(state, reached, true)
	}
	if o.Kind == "malloc" && g.Mallocs != g0.Mallocs+1 || o.Kind == "free" && had > 0 && g.Frees != g0.Frees+1 {
		err = errors.Join(err, fmt.Errorf("a %s counted %d mallocs and %d frees", o.Kind, g.Mallocs-g0.Mallocs, g.Frees-g0.Frees))
	}
	return err
}

// malloc allocates n bytes on each side, at one address: it passes
// custody, is 16-byte aligned, inside the heap and disjoint from every live
// allocation, and an allocation no larger than an object lies in one — in
// the object the last allocation ended in, if it fits there (§3.2). The
// heap may run out only when what follows the highest allocation yet
// cannot hold n bytes past an object's padding.
func (m *model) malloc(n uint64) error {
	m.twin.Flush()
	p, err := m.rt.Malloc(n)
	if m.twin != nil {
		if q, terr := m.twin.rt.Malloc(n); q != p || (terr == nil) != (err == nil) {
			return fmt.Errorf("Malloc(%d) returned %#x, %v; the twin %#x, %v", n, uint64(p), err, uint64(q), terr)
		}
	}
	a := alloc{p, n}
	off, size, next := p.HeapOffset(), a.size(), (m.top+15)&^15 // next: where the last allocation left off
	switch {
	case err != nil && m.top+size+coreObj+16 <= coreHeap:
		return fmt.Errorf("Malloc(%d) refused with %d bytes past the highest allocation: %v", n, coreHeap-m.top, err)
	case err != nil:
		return nil
	case !p.Managed() || off%16 != 0 || off+size > coreHeap:
		return fmt.Errorf("Malloc(%d) returned %#x", n, uint64(p))
	case size <= coreObj && off/coreObj != (off+size-1)/coreObj:
		return fmt.Errorf("Malloc(%d) returned [%#x, %#x), across an object boundary", n, off, off+size)
	case size <= coreObj && next/coreObj == (next+size-1)/coreObj && off != next:
		return fmt.Errorf("Malloc(%d) returned %#x, not the room left at %#x in the object", n, off, next)
	}
	shared := false
	for _, b := range m.live {
		lo, hi := b.p.HeapOffset(), b.p.HeapOffset()+b.size()
		if off < hi && lo < off+size {
			return fmt.Errorf("Malloc(%d) returned [%#x, %#x), which overlaps the live [%#x, %#x)", n, off, off+size, lo, hi)
		}
		shared = shared || size <= coreObj && (lo/coreObj == off/coreObj || (hi-1)/coreObj == off/coreObj)
	}
	m.r.Note("malloc of 0 bytes", n == 0, true)
	m.r.Note("small allocations share an object", shared, true)
	m.r.Note("small allocation moved to the next object", size <= coreObj && off%coreObj == 0 && next < off, true)
	m.live, m.top = append(m.live, a), max(m.top, off+size)
	return nil
}

// free frees a live allocation on each side: every object wholly inside it
// reads as zeros from then on and is not resident.
func (m *model) free(o modeltest.Op) error {
	if len(m.live) == 0 {
		return nil
	}
	i := o.ID % len(m.live)
	a := m.live[i]
	m.live = slices.Delete(m.live, i, i+1)
	m.twin.Flush()
	for _, s := range m.sides {
		s.rt.Free(a.p)
	}
	first, last := (a.p.HeapOffset()+coreObj-1)/coreObj, (a.p.HeapOffset()+a.size())/coreObj
	for id := first; id < last; id++ {
		clear(m.r.Mem[id*coreObj : (id+1)*coreObj])
		if m.rt.pool.Meta(aifm.ObjectID(id)).Present() {
			return fmt.Errorf("object %d, wholly inside the freed [%#x, %#x), is resident", id, a.p.HeapOffset(), a.p.HeapOffset()+a.size())
		}
	}
	m.r.Deleted(int(max(last, first) - first))
	m.r.Note("free released an object", last > first, true)
	m.r.Note("free of a 0-byte allocation", a.n == 0, true)
	return nil
}

// guarded loads or stores bytes of a live allocation through the guard: a
// word at any byte of it (or, one time in four, 4 bytes before an object
// boundary inside it), or a byte range.
func (m *model) guarded(o modeltest.Op) error {
	word := strings.HasSuffix(o.Kind, "-u64")
	a, ok := m.pick(o.ID, 8)
	if !ok {
		return nil
	}
	start, end := a.p.HeapOffset(), a.p.HeapOffset()+a.size()
	off := uint64(o.Off) % a.size()
	n := 1 + uint64(o.N)%(a.size()-off)
	if b := (start + 4 + coreObj - 1) / coreObj * coreObj; word && o.Val>>1&3 == 0 && b+4 <= end {
		off, n = b+uint64(o.Off)%((end-4-b)/coreObj+1)*coreObj-4-start, 8
	} else if word {
		off, n = uint64(o.Off)%(a.size()-7), 8
	}
	_, err := m.guard(a.p.Add(off), int(n), strings.HasPrefix(o.Kind, "store"), word, o.Val)
	return err
}

// guard moves n bytes at p through the guard on each side, a store's drawn
// from v: a word through the word guard, the twin's charging its meter; a
// byte range through Load or Store once the twin has flushed, as a
// backend's LoadBytes and StoreBytes do. Either guards each object it
// spans once, and a single slow path flushes the meter. A word takes the
// slow path on every object it spans that was not resident before it ran,
// and only there when every one was; a straddler's slow path on its first
// object may evict the second, whose guard is then slow too.
func (m *model) guard(p Ptr, n int, write, word bool, v uint64) (failure string, err error) {
	off := int(p.HeapOffset())
	objs := uint64((off+n-1)/coreObj - off/coreObj + 1)
	if !word {
		m.twin.Flush()
	}
	for _, s := range m.sides {
		buf := bytes.Repeat([]byte{0xEE}, n)
		for i := 0; write && i < n; i++ {
			buf[i] = byte(v>>(i%8*8)) ^ byte(i>>3)
		}
		guards, slow, resident := s.guards(), s.rt.counts.SlowPathGuards, uint64(0)
		for o := off / coreObj; o <= (off+n-1)/coreObj; o++ {
			if s.rt.pool.Meta(aifm.ObjectID(o)).Present() {
				resident++
			}
		}
		if failure, _, err = m.r.Access(off, coreObj, buf, write, word, coreEnds, m.peek, func() {
			switch {
			case word:
				binary.LittleEndian.PutUint64(buf, s.rt.word(s.meter, p, v, write, "word"))
			case write:
				s.rt.Store(p, buf)
			default:
				s.rt.Load(p, buf)
			}
		}); failure != "" || err != nil {
			m.r.Note("failed guard", failure != "", true)
			return failure, err
		}
		slowed := s.rt.counts.SlowPathGuards - slow
		m.r.Note("word on resident objects", word && resident == objs, false) // for a Case
		m.r.Note("word on a far object", word && resident == 0, false)
		if s.guards()-guards != objs {
			return "", fmt.Errorf("%d bytes at %#x over %d objects: %d guards", n, off, objs, s.guards()-guards)
		} else if word && (slowed < objs-resident || resident == objs && slowed != 0) {
			return "", fmt.Errorf("a word at %#x over %d objects, %d resident: %d slow guards", off, objs, resident, slowed)
		} else if s.meter != nil && (!word || objs == 1 && s.rt.counts.SlowPathGuards != slow) {
			err = m.flushed()
		}
	}
	m.r.Note("scalar straddle", word && objs == 2, true)
	m.r.Note("byte range across objects", !word && objs > 1, true)
	return "", errors.Join(err, m.metered())
}

// cursorWalk is one walk's state: a cursor on each side over the same
// elements.
type cursorWalk struct {
	m    *model
	a    alloc
	base Ptr
	es   uint64
	rng  *sim.RNG
	curs []*Cursor
}

// walk runs a chunked loop over a live allocation from a skew, over
// elements of 8, 24 or 40 bytes, some across two objects, applying each
// access to the heap as it goes, so a panic mid-walk is judged like a
// failed access at that element (elem). One element in 8 is followed by a
// guarded access to a live allocation while the cursor holds its chunk.
// The chunk held is present and the one object pinned; a walk opened
// without prefetch on TrackFM's runtime issues none.
func (m *model) walk(o modeltest.Op) error {
	a, ok := m.pick(o.ID, 8)
	if !ok {
		return nil
	}
	es, skew := uint64([]int{8, 24, 40}[o.N%3]), uint64(o.Off)%(a.size()/2+1)&^7
	n, prefetch := (a.size()-skew)/es, o.Val&1 == 1
	if n == 0 {
		return nil
	}
	w := &cursorWalk{m: m, a: a, base: a.p.Add(skew), es: es, rng: sim.NewRNG(o.Val)}
	issued, inits := m.rt.env.Counters.Snapshot().PrefetchIssued, m.rt.counts.ChunkInits
	for _, s := range m.sides {
		w.curs = append(w.curs, s.rt.newCursor(s.meter, w.base, int(es), prefetch))
	}
	err := errors.Join(m.metered(), m.flushed())
	if m.rt.counts.ChunkInits != inits+1 {
		err = errors.Join(err, fmt.Errorf("a cursor opened with %d chunk inits", m.rt.counts.ChunkInits-inits))
	}
	for i, failure := uint64(0), ""; i < n && err == nil && failure == ""; {
		var k uint64
		if k, failure, err = w.elem(i, n); failure == "" && w.rng.Intn(8) == 0 {
			b, _ := m.pick(w.rng.Intn(1<<16), 8)
			evictions := m.rt.env.Counters.Snapshot().Evacuations
			var serr error
			failure, serr = m.guard(b.p.Add(uint64(w.rng.Intn(int(b.size()/8)))*8), 8, w.rng.Intn(2) == 0, true, w.rng.Uint64())
			m.r.Note("guarded access beside a held chunk evicted an object", w.curs[0].hi != 0 && m.rt.env.Counters.Snapshot().Evacuations > evictions, true)
			err = errors.Join(err, serr)
		}
		i, err = i+k, errors.Join(err, w.held())
	}
	for _, c := range w.curs {
		c.Close()
	}
	if err == nil { // once a side has failed, the twin is behind
		err = errors.Join(m.metered(), m.flushed())
	}
	if now := m.rt.env.Counters.Snapshot().PrefetchIssued; !prefetch && !m.library && now != issued {
		err = errors.Join(err, fmt.Errorf("a walk opened without prefetch issued %d prefetches", now-issued))
	}
	return err
}

// held checks the chunk each cursor holds: present, and the one object
// pinned.
func (w *cursorWalk) held() error {
	for _, c := range w.curs {
		if pool := c.rt.pool; c.hi != 0 && (!pool.Meta(c.obj).Present() || pool.PinnedObjects() != 1) {
			return fmt.Errorf("the chunk held, object %d, has metadata %#x, among %d objects pinned", c.obj, uint64(pool.Meta(c.obj)), pool.PinnedObjects())
		}
	}
	return nil
}

// stored checks that a store into c's chunk finds or leaves its dirty bit
// set.
func stored(c *Cursor) error {
	if !c.dirty || !c.rt.pool.Meta(c.obj).Dirty() {
		return fmt.Errorf("a store into object %d through the cursor, and its dirty bit is clear", c.obj)
	}
	return nil
}

// elem takes element i through one of the cursor's forms on each side in
// turn: a LoadU64At or StoreU64At at any byte of it (or, one time in eight
// when the walk starts past its allocation's first word, a word before the
// stream's base through the guard, as interp serves an address that falls
// off the stream while its cursor stays open); AccessAt of it whole; or a
// Span from it, up to 40 elements and the end of the object, of which it
// reports some consumed. An access across two objects falls back to the
// guard, and Span returns nil for it. elem returns how many elements it
// took. A store finds the chunk dirty before it writes. Through the meter,
// a crossing or a first store into a chunk flushes it before the access is
// charged, and an access in the window charges its boundary checks and
// flushes nothing. A word's kind is noted: a read of the window, the first
// store into a chunk, a later store, a crossing, or a straddle.
func (w *cursorWalk) elem(i, n uint64) (uint64, string, error) {
	m, form, write, most := w.m, w.rng.Intn(3), w.rng.Intn(3) == 0, min(1+uint64(w.rng.Intn(40)), n-i)
	off, size, took := i*w.es, w.es, uint64(1)
	switch at := w.base.HeapOffset() + off; {
	case form == 0 && w.base-w.a.p >= 8 && w.rng.Intn(8) == 0:
		m.r.Note("pre-base", true, true)
		failure, err := m.guard(w.a.p.Add(uint64(w.rng.Intn(int(w.base-w.a.p)/8))*8), 8, write, true, w.rng.Uint64())
		return 1, failure, err
	case form == 0:
		off, size = off+uint64(w.rng.Intn(int(w.es)-7)), 8
	case form == 2 && at/coreObj == (at+w.es-1)/coreObj:
		w.m.r.Note("span cut at the object's end", (at/coreObj*coreObj+coreObj-at)/w.es < most, true)
		most = min(most, (at/coreObj*coreObj+coreObj-at)/w.es) // what Span hands out
		took = 1 + uint64(w.rng.Intn(1<<16))%most
		size = took * w.es
	}
	at, data := w.base.HeapOffset()+off, make([]byte, size)
	straddle, firstStore := at/coreObj != (at+size-1)/coreObj, write && !w.curs[0].dirty
	for k := range data {
		data[k] = byte(w.rng.Intn(256))
	}
	var err error
	for k, s := range m.sides {
		c, buf := w.curs[k], bytes.Repeat([]byte{0xEE}, int(size))
		if write {
			copy(buf, data)
		}
		crossings, clean, guards, checks := s.rt.counts.LocalityGuards, !c.dirty, s.guards(), s.checks()
		pending, leaves := s.pending().boundaryChecks, c.hi == 0 || at < c.lo || at+size > c.hi
		var cerr error
		failure, _, aerr := m.r.Access(int(at), coreObj, buf, write, form == 0, coreEnds, m.peek, func() {
			switch {
			case form == 0 && write:
				c.StoreU64At(off, binary.LittleEndian.Uint64(buf))
			case form == 0:
				binary.LittleEndian.PutUint64(buf, c.LoadU64At(off))
			case form == 2 && !straddle:
				sr := c.Span(i, most, write)
				if uint64(len(sr)) != most*w.es {
					cerr = fmt.Errorf("Span of %d elements from element %d handed out %d bytes", most, i, len(sr))
					return
				} else if write {
					cerr = stored(c)
					copy(sr, buf)
				} else {
					copy(buf, sr)
				}
				c.Consumed(int(took))
			default:
				if form == 2 && c.Span(i, most, write) != nil {
					cerr = fmt.Errorf("Span handed out element %d, which straddles two objects", i)
				}
				c.AccessAt(off, buf, write)
			}
		})
		if failure != "" {
			m.r.Note("failed guard", straddle, true)
			m.r.Note("failed crossing", !straddle, true)
		}
		if failure != "" || aerr != nil || cerr != nil {
			return 0, failure, errors.Join(aerr, cerr)
		}
		crossed, kind := s.rt.counts.LocalityGuards != crossings, "window read"
		switch {
		case straddle:
			kind = "straddle"
		case crossed:
			kind = "crossing"
		case write && clean:
			kind = "first store"
		case write:
			kind = "dirty store"
		}
		m.r.Note(kind, form == 0, true)
		if straddle {
			continue
		} else if write {
			err = errors.Join(err, stored(c))
		}
		if s.guards() != guards || s.checks() != checks+took || crossed != leaves {
			err = errors.Join(err, fmt.Errorf("element %d: %d guards, %d boundary checks, crossing %t; want none, %d, %t",
				i, s.guards()-guards, s.checks()-checks, crossed, took, leaves))
		}
		flushed := crossed || write && clean // before the access was charged
		if flushed {
			pending = 0
		}
		if got := s.pending(); s.meter != nil && (got.boundaryChecks != pending+took || flushed && got.fastGuards != 0) {
			err = errors.Join(err, fmt.Errorf("element %d: the meter holds %d fast guards and %d boundary checks, flushed %t; want this access's %d on %d",
				i, got.fastGuards, got.boundaryChecks, flushed, took, pending))
		}
	}
	m.r.Note("first store by a span", form == 2 && !straddle && firstStore, true)
	return took, "", errors.Join(err, m.metered())
}

// Check holds what must hold between ops: no object pinned, the bytes in
// use the live allocations' sizes, and the twin where the runtime is.
func (m *model) Check() error {
	var live uint64
	for _, a := range m.live {
		live += a.size()
	}
	for _, s := range m.sides {
		if n := s.rt.pool.PinnedObjects(); n != 0 {
			return fmt.Errorf("%d objects pinned", n)
		}
	}
	if m.rt.HeapBytesInUse() != live {
		return fmt.Errorf("%d heap bytes in use, %d live", m.rt.HeapBytesInUse(), live)
	}
	return m.metered()
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

// Quiesce checks what must hold once no op runs: with the meter flushed,
// the twin's every counter and latency histogram is the runtime's; the
// whole heap reads back through the guard as the rig's; once everything
// is evacuated, the far node holds the heap; and no buffer lease is left
// once the pools close.
func (m *model) Quiesce() error {
	var err error
	if tw := m.twin; tw != nil {
		tw.Flush()
		err = m.metered()
		if a, b := m.rt.env.Counters.Snapshot(), tw.rt.env.Counters.Snapshot(); a != b {
			err = errors.Join(err, fmt.Errorf("env counters: unmetered %v, metered %v", a.String(), b.String()))
		}
		if a, b := histograms(m.rt), histograms(tw.rt); !reflect.DeepEqual(a, b) {
			err = errors.Join(err, fmt.Errorf("latency histograms differ:\nunmetered %v\nmetered   %v", a, b))
		}
		m.twin, m.sides = nil, m.sides[:1] // the read-back is the runtime's alone
		err = errors.Join(err, tw.rt.pool.Close())
	}
	for off := 0; off < coreHeap; off += coreObj {
		buf, rerr := m.peek(off, coreObj)
		if err = errors.Join(err, rerr); rerr == nil {
			err = errors.Join(err, m.r.Differ(off, buf, m.r.Mem[off:off+coreObj]))
		}
	}
	err = errors.Join(err, m.r.Drain(m.rt.EvacuateAll, m.rt.pool.ResidentSlots))
	return errors.Join(err, m.Check(), m.r.FarCopies(coreObj), m.rt.pool.Close(), m.r.LeasesHome())
}

// coreConfigs are each runtime under each fault schedule.
var coreConfigs = []struct {
	name, sched string
	library     bool
}{
	{"fault-free", "fault-free", false}, {"faults", "faults", false}, {"faults-deadline", "faults-deadline", false},
	{"fault-free-library", "fault-free", true}, {"faults-library", "faults", true}, {"faults-deadline-library", "faults-deadline", true},
}

// runtimeOn builds the Runtime of a trace: TrackFM's, or the library one.
func runtimeOn(library bool) func(*modeltest.Rig) (modeltest.Runtime, error) {
	return func(r *modeltest.Rig) (modeltest.Runtime, error) { return newModel(r, library) }
}

// TestModel runs the harness's seeded traces on each config.
func TestModel(t *testing.T) {
	for _, cfg := range coreConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			coreModel.Test(t, modeltest.Schedules[cfg.sched], runtimeOn(cfg.library), nil)
		})
	}
}

// FuzzModel runs a trace drawn from the fuzzer's bytes on the config its
// first argument picks.
func FuzzModel(f *testing.F) {
	f.Add(uint8(0), []byte("a runtime of 256-byte objects: ascii text draws a trace as well as anything"))
	f.Add(uint8(1), bytes.Repeat([]byte{7, 200, 3, 90, 17, 250, 1, 64, 33, 128, 5, 77, 12, 9, 1, 200, 31, 4, 250, 66, 0}, 40))
	f.Add(uint8(3), bytes.Repeat([]byte{41, 9, 180, 77, 2, 240, 63, 5, 128, 99, 14, 1, 0, 0, 230, 16, 3, 8, 91, 44, 5}, 40))
	f.Fuzz(func(t *testing.T, c uint8, script []byte) {
		cfg := coreConfigs[int(c)%len(coreConfigs)]
		coreModel.Fuzz(t, modeltest.Schedules[cfg.sched], runtimeOn(cfg.library), script)
	})
}

// The tests of one feature each that the model took over keep their names.
// Each runs one more seeded trace of the fault-free config on TrackFM's
// runtime, which must reach the states that show the feature ran; the
// checks named beside it hold the feature.
func coreCase(t *testing.T, seed uint64, states ...string) {
	coreModel.Case(t, modeltest.Schedules["fault-free"], runtimeOn(false), coreModel.Trace(sim.NewRNG(seed), coreModel.Len), states...)
}

// malloc: custody, 16-byte alignment, inside the heap, disjoint from the
// live allocations.
func TestMallocReturnsManagedPointers(t *testing.T) {
	coreCase(t, 9, "small allocations share an object")
}

// malloc and free: Malloc(0) takes a byte of its own; HeapBytesInUse.
func TestMallocZeroBytes(t *testing.T) {
	coreCase(t, 25, "malloc of 0 bytes", "free of a 0-byte allocation")
}

// malloc: the object the last allocation ended in, when it fits (§3.2).
func TestMallocSmallAllocationsShareObjects(t *testing.T) {
	coreCase(t, 11, "small allocations share an object")
}

// malloc: an allocation no larger than an object lies in one.
func TestMallocSmallAllocationNeverStraddles(t *testing.T) {
	coreCase(t, 12, "small allocation moved to the next object")
}

// guard: every word and byte range read matches the heap.
func TestLoadStoreRoundTrip(t *testing.T) { coreCase(t, 13, "fast guard") }

// guard and quiesce: reads across evictions and refetches, the read-back
// and the far copies.
func TestLoadStoreSurvivesEviction(t *testing.T) {
	coreCase(t, 14, "evacuation", "remote fetch", "refault")
}

// guard: a word on objects resident before it takes no slow path, and one
// on a far object takes it there.
func TestGuardFastVsSlowPaths(t *testing.T) {
	coreCase(t, 26, "word on resident objects", "word on a far object")
}

// guard: a byte range guards each object it spans once.
func TestBulkAccessSpansObjects(t *testing.T) { coreCase(t, 15, "byte range across objects") }

// free: objects wholly inside a freed allocation read as zeros and are not
// resident.
func TestFreeReleasesObjects(t *testing.T) { coreCase(t, 16, "free released an object") }

// walk: every element a cursor reads matches the heap.
func TestCursorSumMatchesGuardedSum(t *testing.T) { coreCase(t, 17, "window read", "crossing") }

// walk: an access in the window runs no guard and one boundary check, a
// cursor one chunk init.
func TestCursorEliminatesFastPathGuards(t *testing.T) {
	coreCase(t, 18, "window read", "boundary check")
}

// walk: a store through a cursor finds or leaves D set.
func TestCursorWriteMarksDirty(t *testing.T) { coreCase(t, 19, "first store", "dirty store") }

// walk: an element across two objects goes through the guard, and Span
// hands it out as nil.
func TestCursorStraddlingElementFallsBack(t *testing.T) { coreCase(t, 20, "straddle") }

// walk: the chunk held is present and the one object pinned, while a
// guarded access beside it evicts.
func TestCursorPinPreventsEvictionMidChunk(t *testing.T) {
	coreCase(t, 21, "guarded access beside a held chunk evicted an object")
}

// walk: a cursor opened without prefetch issues none; one opened with it
// does (NewRuntime prefetches nowhere else).
func TestCursorPrefetchFlag(t *testing.T) { coreCase(t, 22, "prefetch") }

// walk: a Span store finds the chunk dirty before it writes.
func TestSpanWriteMarksDirtyFirst(t *testing.T) { coreCase(t, 23, "first store by a span") }

// walk: Span hands out min(max, to the object's end) elements.
func TestSpanStopsAtMaxAndObjectEnd(t *testing.T) { coreCase(t, 24, "span cut at the object's end") }
