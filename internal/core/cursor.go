package core

import (
	"encoding/binary"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

// Cursor is the runtime half of the loop-chunking transformation (§3.4,
// Figure 5). The compiler rewrites a guarded loop
//
//	for i := 0; i < N; i++ { sum += GUARD(a[i]) }
//
// into
//
//	cur := rt.NewCursor(a, elemSize, prefetch)   // tfm_init + tfm_rw
//	for i := 0; i < N; i++ {
//	    sum += cur.LoadU64(i)   // boundary check; locality guard on crossing
//	}
//	cur.Close()
//
// Within an object the per-access cost drops from a 14-instruction
// fast-path guard to a 3-instruction boundary check; crossing an object
// boundary pays the locality-invariant guard, which pins the new object in
// local memory for the duration of the chunk (so the evacuator cannot
// delocalize mid-chunk) and optionally prefetches the objects ahead.
//
// A cursor from Meter.NewCursor charges its boundary checks to that meter,
// which it flushes at every crossing, at Close and at the first store into
// a chunk; one from Runtime.NewCursor has no meter and charges the shared
// clock directly.
type Cursor struct {
	rt       *Runtime
	base     Ptr
	elemSize uint64
	prefetch bool
	closed   bool

	// The pinned chunk: object obj covers heap offsets [lo, hi) and win is
	// its bytes in place, valid until the pin is dropped at the next
	// crossing or Close. hi == 0: nothing pinned.
	obj    aifm.ObjectID
	lo, hi uint64
	win    []byte
	dirty  bool // obj's dirty bit is known set

	// prepaid is the part of the next Consumed charge already on the
	// clock: the boundary check that detected the last crossing.
	prepaid uint64

	meter *Meter // the opener's; nil from Runtime.NewCursor
}

// NewCursor performs the tfm_init runtime call for a chunked loop over
// elements of elemSize bytes starting at base. prefetch enables
// compiler-directed stride prefetch at boundary crossings. The caller must
// Close the cursor when the loop exits so the pinned chunk is released.
func (r *Runtime) NewCursor(base Ptr, elemSize int, prefetch bool) *Cursor {
	return r.newCursor(nil, base, elemSize, prefetch)
}

// newCursor is NewCursor for a cursor charging m (nil: no meter).
func (r *Runtime) newCursor(m *Meter, base Ptr, elemSize int, prefetch bool) *Cursor {
	checkManaged(base, "NewCursor")
	m.Flush()
	r.env.Clock.Advance(r.costs.ChunkInit)
	sim.Inc(&r.counts.ChunkInits)
	return &Cursor{
		rt:       r,
		base:     base,
		elemSize: uint64(elemSize),
		prefetch: prefetch,
		meter:    m,
	}
}

// seek is the per-iteration boundary check for an access to heap offsets
// [off, off+size): inside the pinned chunk it costs a compare; leaving it
// runs the locality-invariant guard. It returns the access's offset within
// the chunk. ok is false, with nothing charged or pinned, when the access
// straddles an object boundary: the transformation only elides guards for
// accesses it can prove stay within the pinned chunk, so the caller falls
// back to a regular guarded access.
func (c *Cursor) seek(off, size uint64, write bool) (o uint64, ok bool) {
	if off < c.lo || off+size > c.hi {
		if !c.cross(off, size, write) {
			return 0, false
		}
	} else if write && !c.dirty {
		c.meter.Flush()
		// Set the dirty bit once. The object is pinned, so resident: this
		// moves no bytes and cannot fail.
		_ = c.rt.pool.Access(c.obj, 0, nil, true)
		c.dirty = true
	}
	return off - c.lo, true
}

// cross is the locality-invariant guard: it moves the pin to the object
// holding [off, off+size) and caches the window Pool.Pin lends. Residency
// and the pin are one critical section so a concurrent evacuator cannot
// interleave. The crossing element's boundary check goes on the clock
// here, after the meter's pending charges, ahead of the fetch and
// prefetches it may trigger, and Consumed deducts it.
func (c *Cursor) cross(off, size uint64, write bool) bool {
	if c.closed {
		panic("core: access through closed Cursor")
	}
	r := c.rt
	lo := off &^ (uint64(r.objSize) - 1)
	if off+size > lo+uint64(r.objSize) {
		return false
	}
	c.meter.Flush()
	if c.hi != 0 {
		c.hi = 0
		r.pool.Unpin(c.obj)
	}
	costs := r.costs
	r.env.Clock.Advance(costs.BoundaryCheck + costs.LocalityInvariantPin)
	c.prepaid = costs.BoundaryCheck
	sim.Inc(&r.counts.LocalityGuards)
	id := aifm.ObjectID(lo >> r.shift)
	win, _, err := r.pool.Pin(id, write)
	if err != nil {
		fetchFailed(id, err)
	}
	c.obj, c.lo, c.hi = id, lo, lo+uint64(r.objSize)
	c.win, c.dirty = win, write
	if c.prefetch {
		// The pool's depth, read at each crossing: the anti-thrash
		// governor's throttle (depth 0) reaches a stream already open.
		for k, depth := 1, r.pool.PrefetchDepth(); k <= depth; k++ {
			r.pool.Prefetch(id + aifm.ObjectID(k))
		}
	}
	return true
}

// Consumed charges n chunked accesses — a boundary check and the load or
// store itself for each — in one add, to the cursor's meter if it has
// one. Every scalar accessor ends in Consumed(1); a Span caller reports
// what it consumed before its next call into the cursor, so the clock
// reads the same at every crossing as if each element had been charged
// when touched.
func (c *Cursor) Consumed(n int) {
	if n == 0 {
		return
	}
	r := c.rt
	c.meter.checks(r, uint64(n), uint64(n)*(r.costs.BoundaryCheck+r.costs.LocalLoadStore)-c.prepaid)
	c.prepaid = 0
}

// Span is the body of the chunked loop (Figure 5): after the boundary
// check for element i — and the crossing guard, if it leaves the pinned
// chunk — it returns the bytes of elements i, i+1, ... up to the end of
// the pinned object, at most max (>= 1) of them. The caller works on the
// raw bytes, then reports how many elements it touched with Consumed.
// write marks the object dirty before the first store. The slice aliases
// local memory and dies at the next call into the cursor. Span returns nil
// when element i straddles an object boundary: access that one element
// with Access.
func (c *Cursor) Span(i, max uint64, write bool) []byte {
	o, ok := c.seek(c.base.HeapOffset()+i*c.elemSize, c.elemSize, write)
	if !ok {
		return nil
	}
	n := (c.hi - c.lo - o) / c.elemSize
	if n > max {
		n = max
	}
	return c.win[o : o+n*c.elemSize]
}

// Access moves len(buf) bytes between buf and element i of the chunked
// array (byte offset i*elemSize from the cursor base).
func (c *Cursor) Access(i uint64, buf []byte, write bool) {
	c.AccessAt(i*c.elemSize, buf, write)
}

// AccessAt moves len(buf) bytes at byte offset byteOff from the cursor
// base — the form the compiler emits for records accessed at intra-element
// offsets (e.g. struct fields within a strided stream). Accesses that
// straddle an object boundary fall back to a regular guarded access.
func (c *Cursor) AccessAt(byteOff uint64, buf []byte, write bool) {
	o, ok := c.seek(c.base.HeapOffset()+byteOff, uint64(len(buf)), write)
	if !ok {
		c.rt.access(c.meter, c.base.Add(byteOff), buf, write, "Cursor.Access")
		return
	}
	c.Consumed(1)
	if write {
		copy(c.win[o:], buf)
	} else {
		copy(buf, c.win[o:])
	}
}

// LoadU64 reads element i as a uint64 (element size must be 8).
func (c *Cursor) LoadU64(i uint64) uint64 {
	var buf [8]byte
	c.Access(i, buf[:], false)
	return binary.LittleEndian.Uint64(buf[:])
}

// StoreU64 writes element i as a uint64 (element size must be 8).
func (c *Cursor) StoreU64(i uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	c.Access(i, buf[:], true)
}

// Close releases the pinned chunk. Closing twice is a no-op, matching the
// compiler emitting Close on every loop exit edge.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.meter.Flush()
	if c.hi != 0 {
		c.rt.pool.Unpin(c.obj)
	}
	c.lo, c.hi, c.win = 1, 0, nil // every later access fails the boundary check
}
