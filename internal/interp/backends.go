package interp

import (
	"encoding/binary"
	"fmt"

	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/sim"
)

// localArena is a growable region standing in for stack and global
// memory. Its addresses start well above zero so that nil and small
// integers fault, and below 2^60 so they fail TrackFM's custody check.
type localArena struct {
	base uint64
	buf  []byte
	env  *sim.Env
}

func newLocalArena(base uint64, env *sim.Env) *localArena {
	return &localArena{base: base, env: env}
}

func (a *localArena) alloc(n uint64) uint64 {
	const align = 16
	off := (uint64(len(a.buf)) + align - 1) &^ (align - 1)
	grow := off + n
	for uint64(len(a.buf)) < grow {
		a.buf = append(a.buf, make([]byte, grow-uint64(len(a.buf)))...)
	}
	return a.base + off
}

func (a *localArena) contains(addr uint64) bool {
	return addr >= a.base && addr+8 <= a.base+uint64(len(a.buf))
}

// span returns the n bytes at addr, charging one local load/store per 64
// bytes touched.
func (a *localArena) span(addr, n uint64, op string) []byte {
	if addr < a.base || addr+n > a.base+uint64(len(a.buf)) {
		panic(fmt.Sprintf("interp: local %s at %#x+%d outside arena", op, addr, n))
	}
	a.env.Clock.Advance((n + 63) / 64 * a.env.Costs.LocalLoadStore)
	return a.buf[addr-a.base:][:n]
}

func (a *localArena) load(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(a.span(addr, 8, "load"))
}

func (a *localArena) store(addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(a.span(addr, 8, "store"), v)
}

// localArenaBase places stack/global memory; it is canonical (custody
// check fails) and far from heap offsets.
const localArenaBase = 1 << 32

// TrackFMBackend executes transformed programs against the TrackFM
// runtime: heap pointers are non-canonical, guarded accesses run the
// guard of Fig. 4, chunked streams run the cursor protocol of Fig. 5.
// Over a library runtime (core.NewLibraryRuntime) it is the AIFM
// comparator.
type TrackFMBackend struct {
	RT    *core.Runtime
	local *localArena
}

// NewTrackFMBackend wraps rt.
func NewTrackFMBackend(rt *core.Runtime) *TrackFMBackend {
	return &TrackFMBackend{RT: rt, local: newLocalArena(localArenaBase, rt.Env())}
}

// Env implements Backend.
func (b *TrackFMBackend) Env() *sim.Env { return b.RT.Env() }

// Init implements Backend.
func (b *TrackFMBackend) Init(objectSize int) error {
	return sameObjectSize(objectSize, b.RT.ObjectSize())
}

// sameObjectSize is the check behind Init on the backends whose runtime
// has an object size: every chunking decision in the program was priced
// against compiled bytes per object, so it only holds on a runtime built
// with the same.
func sameObjectSize(compiled, runtime int) error {
	if compiled != runtime {
		return fmt.Errorf("interp: program compiled for %d-byte objects, runtime built for %d-byte objects", compiled, runtime)
	}
	return nil
}

// Malloc implements Backend via the TrackFM allocator.
func (b *TrackFMBackend) Malloc(n uint64) uint64 {
	return uint64(b.RT.MustMalloc(n))
}

// Free implements Backend.
func (b *TrackFMBackend) Free(addr uint64) { b.RT.Free(core.Ptr(addr)) }

// LocalAlloc implements Backend.
func (b *TrackFMBackend) LocalAlloc(n uint64) uint64 { return b.local.alloc(n) }

// Load implements Backend.
func (b *TrackFMBackend) Load(addr uint64, guarded bool) uint64 {
	p := core.Ptr(addr)
	if p.Managed() {
		// Guarded by construction: the analysis marks every access that
		// may see a heap pointer, and only Malloc mints managed values.
		return b.RT.LoadU64(p)
	}
	if guarded {
		b.RT.CustodyReject() // guard ran, custody check said "not ours"
	}
	return b.local.load(addr)
}

// Store implements Backend.
func (b *TrackFMBackend) Store(addr uint64, v uint64, guarded bool) {
	p := core.Ptr(addr)
	if p.Managed() {
		b.RT.StoreU64(p, v)
		return
	}
	if guarded {
		b.RT.CustodyReject()
	}
	b.local.store(addr, v)
}

// LoadBytes implements Backend: one guard per object the range touches.
func (b *TrackFMBackend) LoadBytes(addr uint64, dst []byte) { b.RT.Load(core.Ptr(addr), dst) }

// StoreBytes implements Backend.
func (b *TrackFMBackend) StoreBytes(addr uint64, src []byte) { b.RT.Store(core.Ptr(addr), src) }

// OpenCursor implements Backend.
func (b *TrackFMBackend) OpenCursor(firstAddr uint64, stride int64, prefetch bool) Cursor {
	p := core.Ptr(firstAddr)
	if !p.Managed() {
		// The stream turned out to iterate over local memory; custody
		// fails once at tfm_init and the loop runs unchunked.
		b.RT.CustodyReject()
		return &passthroughCursor{b: b}
	}
	return &tfmCursor{
		b:    b,
		cur:  b.RT.NewCursor(p, int(stride), prefetch),
		base: firstAddr,
	}
}

type tfmCursor struct {
	b    *TrackFMBackend
	cur  *core.Cursor
	base uint64
}

// Load implements Cursor. Addresses before the stream base fall off the
// affine pattern (the analysis guarantees they cannot, but the runtime
// stays safe regardless) and fall back to an ordinary guard; addresses at
// intra-element offsets (record fields within a strided stream) go through
// the cursor's byte-offset form.
func (c *tfmCursor) Load(addr uint64) uint64 {
	if addr < c.base {
		return c.b.RT.LoadU64(core.Ptr(addr))
	}
	var buf [8]byte
	c.cur.AccessAt(addr-c.base, buf[:], false)
	return binary.LittleEndian.Uint64(buf[:])
}

// Store implements Cursor.
func (c *tfmCursor) Store(addr uint64, v uint64) {
	if addr < c.base {
		c.b.RT.StoreU64(core.Ptr(addr), v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	c.cur.AccessAt(addr-c.base, buf[:], true)
}

// Close implements Cursor.
func (c *tfmCursor) Close() { c.cur.Close() }

// passthroughCursor serves chunk-annotated accesses with ordinary backend
// accesses; used when chunking does not apply at run time or the backend
// has no chunk machinery (Fastswap, local).
type passthroughCursor struct{ b Backend }

func (c *passthroughCursor) Load(addr uint64) uint64     { return c.b.Load(addr, true) }
func (c *passthroughCursor) Store(addr uint64, v uint64) { c.b.Store(addr, v, true) }
func (c *passthroughCursor) Close()                      {}

// FastswapBackend executes programs against the kernel-swap baseline. No
// guards exist: every address is pageable and faults do the interposition.
type FastswapBackend struct {
	Swap  *fastswap.Swap
	local *localArena
	// heapBase offsets heap addresses so address 0 stays invalid.
	heapBase uint64
	heapEnd  uint64
}

// fastswapHeapBase keeps heap addresses clear of the null page.
const fastswapHeapBase = 1 << 16

// NewFastswapBackend wraps s.
func NewFastswapBackend(s *fastswap.Swap) *FastswapBackend {
	return &FastswapBackend{
		Swap:     s,
		local:    newLocalArena(1<<48, s.Env()),
		heapBase: fastswapHeapBase,
	}
}

// Env implements Backend.
func (b *FastswapBackend) Env() *sim.Env { return b.Swap.Env() }

// Init implements Backend; pages have no compile-time size to agree on.
func (b *FastswapBackend) Init(int) error { return nil }

// Malloc implements Backend.
func (b *FastswapBackend) Malloc(n uint64) uint64 {
	off := b.Swap.MustMalloc(n)
	end := off + n + b.heapBase
	if end > b.heapEnd {
		b.heapEnd = end
	}
	return off + b.heapBase
}

// Free implements Backend. The swap baseline's bump allocator does not
// reuse; freed pages simply stop being touched, as in the paper's runs.
func (b *FastswapBackend) Free(addr uint64) {}

// LocalAlloc implements Backend.
func (b *FastswapBackend) LocalAlloc(n uint64) uint64 { return b.local.alloc(n) }

func (b *FastswapBackend) isHeap(addr uint64) bool {
	return addr >= b.heapBase && addr < b.heapEnd
}

// Load implements Backend.
func (b *FastswapBackend) Load(addr uint64, guarded bool) uint64 {
	if b.isHeap(addr) {
		return b.Swap.LoadU64(addr - b.heapBase)
	}
	return b.local.load(addr)
}

// Store implements Backend.
func (b *FastswapBackend) Store(addr uint64, v uint64, guarded bool) {
	if b.isHeap(addr) {
		b.Swap.StoreU64(addr-b.heapBase, v)
		return
	}
	b.local.store(addr, v)
}

// LoadBytes implements Backend: one fault per non-resident page the range
// touches.
func (b *FastswapBackend) LoadBytes(addr uint64, dst []byte) { b.Swap.Load(addr-b.heapBase, dst) }

// StoreBytes implements Backend.
func (b *FastswapBackend) StoreBytes(addr uint64, src []byte) { b.Swap.Store(addr-b.heapBase, src) }

// OpenCursor implements Backend; the kernel approach has no chunk
// machinery, so streams run as plain accesses.
func (b *FastswapBackend) OpenCursor(uint64, int64, bool) Cursor {
	return &passthroughCursor{b: b}
}

// LocalBackend executes programs entirely in local memory: the
// "local-only" normalization baseline of the paper's slowdown figures,
// and the engine for cheap profiling runs.
type LocalBackend struct {
	env   *sim.Env
	heap  *localArena
	local *localArena
}

// NewLocalBackend returns a local-memory backend charging env.
func NewLocalBackend(env *sim.Env) *LocalBackend {
	return &LocalBackend{
		env:   env,
		heap:  newLocalArena(1<<16, env),
		local: newLocalArena(1<<48, env),
	}
}

// Env implements Backend.
func (b *LocalBackend) Env() *sim.Env { return b.env }

// Init implements Backend.
func (b *LocalBackend) Init(int) error { return nil }

// Malloc implements Backend.
func (b *LocalBackend) Malloc(n uint64) uint64 { return b.heap.alloc(n) }

// Free implements Backend.
func (b *LocalBackend) Free(addr uint64) {}

// LocalAlloc implements Backend.
func (b *LocalBackend) LocalAlloc(n uint64) uint64 { return b.local.alloc(n) }

// Load implements Backend.
func (b *LocalBackend) Load(addr uint64, guarded bool) uint64 {
	if b.heap.contains(addr) {
		return b.heap.load(addr)
	}
	return b.local.load(addr)
}

// Store implements Backend.
func (b *LocalBackend) Store(addr uint64, v uint64, guarded bool) {
	if b.heap.contains(addr) {
		b.heap.store(addr, v)
		return
	}
	b.local.store(addr, v)
}

// LoadBytes implements Backend: one local load per 64 bytes.
func (b *LocalBackend) LoadBytes(addr uint64, dst []byte) {
	copy(dst, b.heap.span(addr, uint64(len(dst)), "load"))
}

// StoreBytes implements Backend.
func (b *LocalBackend) StoreBytes(addr uint64, src []byte) {
	copy(b.heap.span(addr, uint64(len(src)), "store"), src)
}

// OpenCursor implements Backend.
func (b *LocalBackend) OpenCursor(uint64, int64, bool) Cursor {
	return &passthroughCursor{b: b}
}

var (
	_ Backend = (*TrackFMBackend)(nil)
	_ Backend = (*FastswapBackend)(nil)
	_ Backend = (*LocalBackend)(nil)
)
