package interp

import (
	"encoding/binary"

	"trackfm/internal/aifm"
	"trackfm/internal/core"
	"trackfm/internal/sim"
)

// AIFMBackend executes programs the way the paper's library-based
// comparator runs them (§4.5, Fig. 14): the programmer has hand-ported the
// application onto AIFM's remote data structures, so there are no
// compiler-injected guards. Every access pays the smart-pointer
// indirection plus the DerefScope cost when the object needs localizing;
// sequential streams run through a model of the library iterators
// (per-object pin + prefetch), which is what the compiler's chunk
// annotations stand in for.
//
// This backend represents the performance ceiling TrackFM is measured
// against: identical runtime mechanics, zero guard instructions.
type AIFMBackend struct {
	pool  *aifm.Pool
	env   *sim.Env
	local *localArena

	heapBase uint64
	heapSize uint64
	brk      uint64
	objSize  uint64
}

// aifmHeapBase tags AIFM heap addresses; distinct from the TrackFM
// non-canonical range and the local arena.
const aifmHeapBase = 1 << 59

// aifmIteratorDepth is how many objects ahead the library iterators
// prefetch.
const aifmIteratorDepth = 8

// NewAIFMBackend builds the comparator backend over a pool of its own:
// objSize-byte objects, a far heap of heap bytes, local bytes of them
// allowed local.
func NewAIFMBackend(env *sim.Env, objSize int, heap, local uint64) (*AIFMBackend, error) {
	pool, err := aifm.NewPool(aifm.Config{
		Env:          env,
		ObjectSize:   objSize,
		HeapSize:     heap,
		LocalBudget:  local,
		AutoPrefetch: true, // library data structures prefetch internally
	})
	if err != nil {
		return nil, err
	}
	return &AIFMBackend{
		pool:     pool,
		env:      env,
		local:    newLocalArena(localArenaBase, env),
		heapBase: aifmHeapBase,
		heapSize: heap,
		objSize:  uint64(objSize),
	}, nil
}

// Env exposes the backend's environment.
func (b *AIFMBackend) Env() *sim.Env { return b.env }

// Init implements Backend.
func (b *AIFMBackend) Init(objectSize int) error {
	return sameObjectSize(objectSize, int(b.objSize))
}

// Malloc implements Backend: allocations become AIFM remote data
// structures, placed as the TrackFM allocator places them (the library
// developer lays structures out that way by construction).
func (b *AIFMBackend) Malloc(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	start := core.Place(b.brk, n, b.objSize)
	if start+n > b.heapSize {
		panic("interp: AIFM heap exhausted")
	}
	b.brk = start + n
	return b.heapBase + start
}

// Free implements Backend.
func (b *AIFMBackend) Free(addr uint64) {}

// LocalAlloc implements Backend.
func (b *AIFMBackend) LocalAlloc(n uint64) uint64 { return b.local.alloc(n) }

func (b *AIFMBackend) isHeap(addr uint64) bool {
	return addr >= b.heapBase && addr < b.heapBase+b.heapSize
}

func (b *AIFMBackend) locate(addr uint64) (aifm.ObjectID, uint64) {
	off := addr - b.heapBase
	return aifm.ObjectID(off / b.objSize), off % b.objSize
}

// access performs one smart-pointer dereference: indirection cost, scope
// pin if the object is remote, then the data access.
func (b *AIFMBackend) access(addr uint64, write bool) (aifm.ObjectID, uint64) {
	id, off := b.locate(addr)
	b.env.Clock.Advance(b.env.Costs.SmartPointerIndirection)
	if !b.pool.Meta(id).Present() {
		b.env.Clock.Advance(b.env.Costs.DerefScopeCost)
	}
	b.pool.Localize(id, write)
	b.env.Clock.Advance(b.env.Costs.LocalLoadStore)
	return id, off
}

// Load implements Backend.
func (b *AIFMBackend) Load(addr uint64, guarded bool) uint64 {
	if !b.isHeap(addr) {
		return b.local.load(addr)
	}
	id, off := b.access(addr, false)
	var buf [8]byte
	b.pool.Read(id, off, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store implements Backend.
func (b *AIFMBackend) Store(addr uint64, v uint64, guarded bool) {
	if !b.isHeap(addr) {
		b.local.store(addr, v)
		return
	}
	id, off := b.access(addr, true)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.pool.Write(id, off, buf[:])
}

// LoadBytes implements Backend: one dereference per object the range
// touches.
func (b *AIFMBackend) LoadBytes(addr uint64, dst []byte) { b.copyBytes(addr, dst, false) }

// StoreBytes implements Backend.
func (b *AIFMBackend) StoreBytes(addr uint64, src []byte) { b.copyBytes(addr, src, true) }

func (b *AIFMBackend) copyBytes(addr uint64, buf []byte, write bool) {
	for len(buf) > 0 {
		id, off := b.access(addr, write)
		seg := buf[:min(uint64(len(buf)), b.objSize-off)]
		if write {
			b.pool.Write(id, off, seg)
		} else {
			b.pool.Read(id, off, seg)
		}
		addr += uint64(len(seg))
		buf = buf[len(seg):]
	}
}

// OpenCursor implements Backend: the library iterator — per-object pin,
// internal prefetch, indirection cost only at object boundaries.
func (b *AIFMBackend) OpenCursor(firstAddr uint64, stride int64, prefetch bool) Cursor {
	if !b.isHeap(firstAddr) {
		return &passthroughCursor{b: b}
	}
	return &aifmIterator{b: b, cur: aifm.ObjectID(^uint64(0)), prefetch: prefetch}
}

type aifmIterator struct {
	b        *AIFMBackend
	cur      aifm.ObjectID
	pinned   bool
	prefetch bool
}

func (it *aifmIterator) ensure(addr uint64, write bool) (aifm.ObjectID, uint64) {
	b := it.b
	id, off := b.locate(addr)
	if !it.pinned || id != it.cur {
		if it.pinned {
			b.pool.Unpin(it.cur)
		}
		b.env.Clock.Advance(b.env.Costs.SmartPointerIndirection + b.env.Costs.DerefScopeCost)
		b.pool.Localize(id, write)
		b.pool.Pin(id)
		it.cur, it.pinned = id, true
		if it.prefetch {
			for k := aifm.ObjectID(1); k <= aifmIteratorDepth; k++ {
				b.pool.Prefetch(id + k)
			}
		}
	} else if write && !b.pool.Meta(id).Dirty() {
		b.pool.Localize(id, true)
	}
	b.env.Clock.Advance(b.env.Costs.LocalLoadStore)
	return id, off
}

// Load implements Cursor.
func (it *aifmIterator) Load(addr uint64) uint64 {
	if !it.b.isHeap(addr) {
		return it.b.local.load(addr)
	}
	id, off := it.ensure(addr, false)
	var buf [8]byte
	it.b.pool.Read(id, off, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store implements Cursor.
func (it *aifmIterator) Store(addr uint64, v uint64) {
	if !it.b.isHeap(addr) {
		it.b.local.store(addr, v)
		return
	}
	id, off := it.ensure(addr, true)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	it.b.pool.Write(id, off, buf[:])
}

// Close implements Cursor.
func (it *aifmIterator) Close() {
	if it.pinned {
		it.b.pool.Unpin(it.cur)
		it.pinned = false
	}
}

var _ Backend = (*AIFMBackend)(nil)
