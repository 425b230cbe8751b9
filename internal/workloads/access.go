// Package workloads provides the applications and microbenchmarks of the
// paper's evaluation, plus the access-layer abstraction that lets each
// workload run unchanged against TrackFM, Fastswap, or local-only memory.
//
// Two styles exist, mirroring the paper's methodology:
//
//   - IR workloads (stream, kmeans, analytics, nas) are built as mini-IR
//     programs and transformed by the real compiler pipeline — guards and
//     loop chunking are decided by the passes, not hand-placed.
//   - Direct workloads (hashmap, kv) call the runtimes through the
//     Accessor interface defined here, playing the role of an
//     already-transformed application; this is needed where variable-size
//     allocation patterns (slab allocators) dominate.
package workloads

import (
	"encoding/binary"

	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/sim"
)

// Accessor is the memory interface direct-style workloads are written
// against. Addresses are opaque; each implementation mints its own.
type Accessor interface {
	// Env exposes the clock/counters this accessor charges.
	Env() *sim.Env
	// Malloc allocates n heap bytes.
	Malloc(n uint64) uint64
	// LoadU64 / StoreU64 perform one guarded/faulting 8-byte access.
	LoadU64(addr uint64) uint64
	StoreU64(addr uint64, v uint64)
	// Load / Store move arbitrary byte ranges.
	Load(addr uint64, dst []byte)
	Store(addr uint64, src []byte)
	// SeqReader returns an optimized sequential cursor over fixed-size
	// elements starting at base — chunking+prefetch for TrackFM, plain
	// accesses elsewhere.
	SeqReader(base uint64, elemSize int) SeqReader
	// Reset evacuates all cached state so a measurement starts cold.
	Reset()
}

// SeqReader streams fixed-size elements sequentially.
type SeqReader interface {
	// Next reads element i into dst.
	Next(i uint64, dst []byte)
	// Close releases cursor state.
	Close()
}

// TrackFMAccessor adapts core.Runtime.
type TrackFMAccessor struct {
	RT *core.Runtime
}

// Env implements Accessor.
func (a *TrackFMAccessor) Env() *sim.Env { return a.RT.Env() }

// Malloc implements Accessor.
func (a *TrackFMAccessor) Malloc(n uint64) uint64 { return uint64(a.RT.MustMalloc(n)) }

// LoadU64 implements Accessor.
func (a *TrackFMAccessor) LoadU64(addr uint64) uint64 { return a.RT.LoadU64(core.Ptr(addr)) }

// StoreU64 implements Accessor.
func (a *TrackFMAccessor) StoreU64(addr uint64, v uint64) { a.RT.StoreU64(core.Ptr(addr), v) }

// Load implements Accessor.
func (a *TrackFMAccessor) Load(addr uint64, dst []byte) { a.RT.Load(core.Ptr(addr), dst) }

// Store implements Accessor.
func (a *TrackFMAccessor) Store(addr uint64, src []byte) { a.RT.Store(core.Ptr(addr), src) }

// SeqReader implements Accessor with a chunked, prefetching cursor.
func (a *TrackFMAccessor) SeqReader(base uint64, elemSize int) SeqReader {
	return &tfmSeqReader{cur: a.RT.NewCursor(core.Ptr(base), elemSize, true)}
}

// Reset implements Accessor.
func (a *TrackFMAccessor) Reset() { a.RT.EvacuateAll() }

type tfmSeqReader struct{ cur *core.Cursor }

func (r *tfmSeqReader) Next(i uint64, dst []byte) { r.cur.Access(i, dst, false) }
func (r *tfmSeqReader) Close()                    { r.cur.Close() }

// FastswapAccessor adapts fastswap.Swap.
type FastswapAccessor struct {
	Swap *fastswap.Swap
}

// Env implements Accessor.
func (a *FastswapAccessor) Env() *sim.Env { return a.Swap.Env() }

// Malloc implements Accessor.
func (a *FastswapAccessor) Malloc(n uint64) uint64 { return a.Swap.MustMalloc(n) }

// LoadU64 implements Accessor.
func (a *FastswapAccessor) LoadU64(addr uint64) uint64 { return a.Swap.LoadU64(addr) }

// StoreU64 implements Accessor.
func (a *FastswapAccessor) StoreU64(addr uint64, v uint64) { a.Swap.StoreU64(addr, v) }

// Load implements Accessor.
func (a *FastswapAccessor) Load(addr uint64, dst []byte) { a.Swap.Load(addr, dst) }

// Store implements Accessor.
func (a *FastswapAccessor) Store(addr uint64, src []byte) { a.Swap.Store(addr, src) }

// SeqReader implements Accessor; the kernel has no cursor machinery: every
// page of the stream faults on its own.
func (a *FastswapAccessor) SeqReader(base uint64, elemSize int) SeqReader {
	return &fsSeqReader{a: a, base: base, elem: uint64(elemSize)}
}

// Reset implements Accessor.
func (a *FastswapAccessor) Reset() { a.Swap.EvacuateAll() }

type fsSeqReader struct {
	a    *FastswapAccessor
	base uint64
	elem uint64
}

func (r *fsSeqReader) Next(i uint64, dst []byte) { r.a.Load(r.base+i*r.elem, dst) }
func (r *fsSeqReader) Close()                    {}

// LocalAccessor is the local-only baseline: a plain arena charging one
// load/store cost per 64 bytes touched.
type LocalAccessor struct {
	env *sim.Env
	buf []byte
}

// NewLocalAccessor returns an empty local accessor charging env.
func NewLocalAccessor(env *sim.Env) *LocalAccessor {
	return &LocalAccessor{env: env}
}

// Env implements Accessor.
func (a *LocalAccessor) Env() *sim.Env { return a.env }

// Malloc implements Accessor. Address 0 is reserved so callers can use 0
// as "nil"; the first allocation starts at 64.
func (a *LocalAccessor) Malloc(n uint64) uint64 {
	const align = 16
	if len(a.buf) == 0 {
		a.buf = make([]byte, 64)
	}
	off := (uint64(len(a.buf)) + align - 1) &^ (align - 1)
	a.buf = append(a.buf, make([]byte, off+n-uint64(len(a.buf)))...)
	return off
}

func (a *LocalAccessor) charge(n int) {
	a.env.Clock.Advance(uint64((n+63)/64) * a.env.Costs.LocalLoadStore)
}

// LoadU64 implements Accessor.
func (a *LocalAccessor) LoadU64(addr uint64) uint64 {
	a.charge(8)
	return binary.LittleEndian.Uint64(a.buf[addr : addr+8])
}

// StoreU64 implements Accessor.
func (a *LocalAccessor) StoreU64(addr uint64, v uint64) {
	a.charge(8)
	binary.LittleEndian.PutUint64(a.buf[addr:addr+8], v)
}

// Load implements Accessor.
func (a *LocalAccessor) Load(addr uint64, dst []byte) {
	a.charge(len(dst))
	copy(dst, a.buf[addr:addr+uint64(len(dst))])
}

// Store implements Accessor.
func (a *LocalAccessor) Store(addr uint64, src []byte) {
	a.charge(len(src))
	copy(a.buf[addr:addr+uint64(len(src))], src)
}

// SeqReader implements Accessor.
func (a *LocalAccessor) SeqReader(base uint64, elemSize int) SeqReader {
	return &localSeqReader{a: a, base: base, elem: uint64(elemSize)}
}

// Reset implements Accessor (nothing to evacuate).
func (a *LocalAccessor) Reset() {}

type localSeqReader struct {
	a    *LocalAccessor
	base uint64
	elem uint64
}

func (r *localSeqReader) Next(i uint64, dst []byte) { r.a.Load(r.base+i*r.elem, dst) }
func (r *localSeqReader) Close()                    {}

var (
	_ Accessor = (*TrackFMAccessor)(nil)
	_ Accessor = (*FastswapAccessor)(nil)
	_ Accessor = (*LocalAccessor)(nil)
)
