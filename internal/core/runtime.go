package core

import (
	"fmt"
	"math/bits"
	"sync"

	"trackfm/internal/aifm"
	"trackfm/internal/fabric"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// Config parameterizes a TrackFM runtime.
type Config struct {
	// Env supplies the clock, counters, and cost model. Required.
	Env *sim.Env
	// ObjectSize is the single compile-time object size for the whole
	// application (§3.2). Power of two in [64, 65536].
	ObjectSize int
	// HeapSize caps the far heap; it sizes the object state table
	// (HeapSize/ObjectSize entries of 8 bytes, the paper's
	// single-level-page-table-like overhead).
	HeapSize uint64
	// LocalBudget is local memory available for object data, in bytes —
	// the "local mem %" axis of the paper's figures (metadata excluded,
	// as in the paper).
	LocalBudget uint64
	// RemoteConfig locates far memory and bounds each remote operation
	// (retries, deadline); it is handed to the pool's far engine
	// untouched. The zero value is an in-process simulated TCP link.
	fabric.RemoteConfig
	// Transport, when non-nil, is RemoteConfig.Transport under its old
	// spelling. It survives only because benchmarks/fmbench — frozen by
	// BENCHMARK.json — sets it by name; nothing else may.
	Transport fabric.ErrorTransport
	// PrefetchDepth is how many objects ahead compiler-directed streams
	// prefetch (see aifm.Config.PrefetchDepth; zero is the default, 8).
	// Whether a stream prefetches at all is the compiler's decision,
	// carried by its ChunkInfo to NewCursor.
	PrefetchDepth int
	// NoOST disables the object state table (ablation): every guard
	// pays AIFM's second, indirect metadata reference instead of the
	// single table-indexed load (§3.2).
	NoOST bool
	// CompressedBudget enables the pool's compressed-RAM middle tier
	// with this byte budget (see aifm.Config.CompressedBudget).
	CompressedBudget uint64
}

// Runtime is the TrackFM runtime attached to one transformed application.
// It owns the unified object pool (the paper's abstract data structure
// holding every remotable allocation), the object state table, and the
// allocator.
//
// Runtime is safe for concurrent use: a guarded access (Load/Store and
// friends) is atomic with respect to every other (see aifm.Pool.Access —
// a resident read copies with no lock and validates against its stripe's
// sequence, anything else holds the stripe lock or a pin across the copy),
// the allocator serializes under its own mutex, and OST reads on the guard
// fast path are single atomic loads. A Cursor remains a
// single-goroutine object (one per worker). The simulated clock stays one
// logical timeline shared by all goroutines.
type Runtime struct {
	env *sim.Env
	// The guard layer's charges, counts and slow-path latencies: the env's
	// own, or a library runtime's (NewLibraryRuntime).
	costs  *sim.CostModel
	counts *sim.Counters
	lat    *sim.Latencies

	pool  *aifm.Pool
	ost   []aifm.Meta // alias of pool.Table(): coherent by construction
	cache *ostCache

	objSize int
	shift   uint

	heapSize uint64
	allocMu  sync.Mutex
	brk      uint64         // bump pointer, heap offset of next free byte
	allocs   map[Ptr]uint64 // live allocation sizes, for free

	noOST bool
}

// NewRuntime validates cfg and initializes the runtime — the work the
// compiler's runtime-initialization pass injects into main (§3.1).
func NewRuntime(cfg Config) (*Runtime, error) { return newRuntime(cfg, false) }

// NewLibraryRuntime builds the runtime the hand-ported AIFM comparator runs
// on (§4.5, Fig. 14): the same guards, cursors and allocator, so the
// comparison differs from TrackFM in the guard layer alone. Its guard
// layer charges the env's cost model's Library table, counts into a sink
// of its own rather than the env's counters (a hand port executes no
// guards), and its pool runs the library's stride prefetcher.
func NewLibraryRuntime(cfg Config) (*Runtime, error) { return newRuntime(cfg, true) }

func newRuntime(cfg Config, library bool) (*Runtime, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: Config.Env is required")
	}
	if cfg.ObjectSize == 0 {
		cfg.ObjectSize = 4096
	}
	if cfg.HeapSize == 0 {
		return nil, fmt.Errorf("core: Config.HeapSize is required")
	}
	if cfg.LocalBudget == 0 {
		return nil, fmt.Errorf("core: Config.LocalBudget is required")
	}
	if cfg.Transport != nil {
		cfg.RemoteConfig.Transport = cfg.Transport
	}
	pool, err := aifm.NewPool(aifm.Config{
		Env:              cfg.Env,
		RemoteConfig:     cfg.RemoteConfig,
		ObjectSize:       cfg.ObjectSize,
		HeapSize:         cfg.HeapSize,
		LocalBudget:      cfg.LocalBudget,
		AutoPrefetch:     library, // the library's stride prefetcher; TrackFM's is compiler-directed
		PrefetchDepth:    cfg.PrefetchDepth,
		CompressedBudget: cfg.CompressedBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := &Runtime{
		env:      cfg.Env,
		costs:    &cfg.Env.Costs,
		counts:   &cfg.Env.Counters,
		lat:      cfg.Env.Lat(),
		pool:     pool,
		ost:      pool.Table(),
		cache:    newOSTCache(int(pool.NumObjects()), ostCacheLines),
		objSize:  cfg.ObjectSize,
		shift:    uint(bits.TrailingZeros(uint(cfg.ObjectSize))),
		heapSize: cfg.HeapSize,
		allocs:   make(map[Ptr]uint64),
		noOST:    cfg.NoOST,
	}
	if library {
		costs := cfg.Env.Costs.Library()
		r.costs, r.counts = &costs, new(sim.Counters)
		r.lat = &sim.Latencies{GuardSlow: obs.NewHistogram(nil)}
	}
	return r, nil
}

// Env returns the runtime's simulation environment.
func (r *Runtime) Env() *sim.Env { return r.env }

// Pool exposes the underlying AIFM pool (tests, and callers that resize
// or throttle it, use it directly).
func (r *Runtime) Pool() *aifm.Pool { return r.pool }

// ObjectSize reports the compile-time object size.
func (r *Runtime) ObjectSize() int { return r.objSize }

// HeapBytesInUse reports bytes of far heap handed out by Malloc and not
// yet freed.
func (r *Runtime) HeapBytesInUse() uint64 {
	r.allocMu.Lock()
	defer r.allocMu.Unlock()
	var n uint64
	for _, sz := range r.allocs {
		n += sz
	}
	return n
}

// Malloc allocates n bytes of far memory and returns a TrackFM
// (non-canonical) pointer. This is the entry point the libc
// transformation pass rewires malloc to (§3.1); place decides where the
// allocation lands.
func (r *Runtime) Malloc(n uint64) (Ptr, error) {
	if n == 0 {
		n = 1
	}
	r.env.Clock.Advance(r.costs.MallocCost)
	sim.Inc(&r.counts.Mallocs)

	r.allocMu.Lock()
	defer r.allocMu.Unlock()
	start := place(r.brk, n, uint64(r.objSize))
	if start > r.heapSize || n > r.heapSize-start {
		return 0, fmt.Errorf("core: far heap exhausted (%d of %d bytes in use)", r.brk, r.heapSize)
	}
	r.brk = start + n
	p := ptrBase + Ptr(start)
	r.allocs[p] = n
	return p, nil
}

// place returns where a bump allocator whose next free byte is brk puts an
// n-byte allocation in a heap of objSize-byte objects: 16-byte aligned, and
// an allocation no larger than one object never straddles an object
// boundary — small allocations are grouped within a single object (§3.2),
// so sub-word accesses always hit one.
func place(brk, n, objSize uint64) uint64 {
	const align = 16
	start := (brk + align - 1) &^ (align - 1)
	if n <= objSize {
		objEnd := (start &^ (objSize - 1)) + objSize
		if start+n > objEnd {
			start = objEnd
		}
	}
	return start
}

// MustMalloc is Malloc for callers holding a sized heap by construction
// (the benchmark harness); it panics on exhaustion.
func (r *Runtime) MustMalloc(n uint64) Ptr {
	p, err := r.Malloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Free releases an allocation made by Malloc. Objects fully covered by
// the allocation are released from the pool and the remote node; objects
// shared with neighbouring small allocations are retained. Freeing an
// unknown pointer panics, mirroring heap corruption aborting a real
// allocator.
func (r *Runtime) Free(p Ptr) {
	r.allocMu.Lock()
	n, ok := r.allocs[p]
	if !ok {
		r.allocMu.Unlock()
		panic(fmt.Sprintf("core: Free of unknown pointer %#x", uint64(p)))
	}
	delete(r.allocs, p)
	r.allocMu.Unlock()
	r.env.Clock.Advance(r.costs.FreeCost)
	sim.Inc(&r.counts.Frees)

	start := p.HeapOffset()
	end := start + n
	firstFull := (start + uint64(r.objSize) - 1) / uint64(r.objSize)
	lastFull := end / uint64(r.objSize)
	for id := firstFull; id < lastFull; id++ {
		r.pool.Free(aifm.ObjectID(id))
	}
}

// FlushOSTCache empties the warm-line model so subsequent guards pay
// uncached costs (Table 1 methodology).
func (r *Runtime) FlushOSTCache() { r.cache.flush() }

// EvacuateAll force-evacuates the pool, starting a measurement cold.
func (r *Runtime) EvacuateAll() { r.pool.EvacuateAll() }
