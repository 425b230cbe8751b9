// Package farmem is the public, Go-idiomatic face of the TrackFM runtime:
// a far-memory heap whose contents transparently spill to a remote node
// (simulated by default, or a real fmserver over TCP) under a local-memory
// budget, with typed slices whose iterators get the loop-chunking and
// prefetching treatment the TrackFM compiler would emit.
//
// A downstream user never touches guards or cursors directly:
//
//	h, _ := farmem.New(farmem.Config{
//	    HeapBytes:  1 << 30,
//	    LocalBytes: 64 << 20,
//	})
//	xs, _ := farmem.NewUint64s(h, 1_000_000)
//	xs.Set(42, 7)
//	sum := uint64(0)
//	xs.Range(func(i int, v uint64) bool { sum += v; return true })
//
// Range runs through a chunked, prefetching cursor; random access runs
// through guards. Stats exposes what the runtime did.
package farmem

import (
	"fmt"
	"sync/atomic"

	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// Config parameterizes a far-memory heap.
type Config struct {
	// HeapBytes is the maximum far-memory heap (required).
	HeapBytes uint64
	// LocalBytes is the local-memory budget (required).
	LocalBytes uint64
	// ObjectBytes is the far-memory object (chunk) size: a power of two
	// in [64, 65536]. Default 4096. Small objects suit fine-grained
	// random access; large objects suit streaming (see the paper's
	// Figs. 9-10, or use the autotuner).
	ObjectBytes int
	// RemoteConfig selects the remote side: RemoteAddr dials a real
	// remote-memory node (cmd/fmserver), Transport injects one directly;
	// RemoteRetries and OpDeadline bound each remote operation. The zero
	// value keeps the in-process simulated link.
	fabric.RemoteConfig
	// CompressedBytes enables the compressed-RAM middle tier between
	// local memory and the remote store: evicted objects park an
	// LZ-compressed copy locally (bounded by this byte budget) and a
	// miss revives them with a decompression instead of a network round
	// trip. Write-through: remote contents are byte-identical with or
	// without the tier. Zero disables it.
	CompressedBytes uint64
}

// Heap is a far-memory heap. Safe for concurrent use: accesses ride the
// runtime's striped, pinning guard paths, and Stats/Snapshot read atomic
// counter snapshots. Each Range iteration runs its own cursor, so separate
// goroutines may Range concurrently over separate (or the same) slices.
type Heap struct {
	rt  *core.Runtime
	env *sim.Env
	// epoch is the clock reading at the last ResetStats: simulated time is
	// reported since it, and the clock itself only moves forward.
	epoch atomic.Uint64
}

// New creates a heap.
func New(cfg Config) (*Heap, error) {
	if cfg.HeapBytes == 0 || cfg.LocalBytes == 0 {
		return nil, fmt.Errorf("farmem: HeapBytes and LocalBytes are required")
	}
	env := sim.NewEnv()
	rt, err := core.NewRuntime(core.Config{
		Env:              env,
		ObjectSize:       cfg.ObjectBytes,
		HeapSize:         cfg.HeapBytes,
		LocalBudget:      cfg.LocalBytes,
		RemoteConfig:     cfg.RemoteConfig,
		CompressedBudget: cfg.CompressedBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("farmem: %w", err)
	}
	// Everything this heap built reports through the heap's one registry:
	// the pool, its far engine and tier, and the transport the engine
	// resolved.
	rt.Pool().RegisterObs(env.Metrics())
	return &Heap{rt: rt, env: env}, nil
}

// Close returns the compressed tier's buffers and releases the heap's
// network connection, if it dialed one.
func (h *Heap) Close() error { return h.rt.Pool().Close() }

// Stats reports the runtime's accounting since the last ResetStats.
type Stats struct {
	// FastGuards and SlowGuards count guard executions by path.
	FastGuards, SlowGuards uint64
	// RemoteFetches counts objects pulled from the remote node;
	// BytesFetched/BytesEvicted the data moved each way.
	RemoteFetches              uint64
	BytesFetched, BytesEvicted uint64
	// PrefetchHits counts accesses served early by prefetching.
	PrefetchHits uint64
	// SimulatedSeconds is the modeled execution time at 2.4 GHz.
	SimulatedSeconds float64
}

// Stats snapshots the heap's counters (atomically, so it is safe to call
// while worker goroutines run).
func (h *Heap) Stats() Stats {
	c := h.env.Counters.Snapshot()
	return Stats{
		FastGuards:       c.FastPathGuards,
		SlowGuards:       c.SlowPathGuards,
		RemoteFetches:    c.RemoteFetches,
		BytesFetched:     c.BytesFetched,
		BytesEvicted:     c.BytesEvicted,
		PrefetchHits:     c.PrefetchHits,
		SimulatedSeconds: h.simulatedSeconds(),
	}
}

// simulatedSeconds is the modeled time since the last ResetStats.
func (h *Heap) simulatedSeconds() float64 {
	epoch := h.epoch.Load() // before the clock, which may pass a newer epoch
	return float64(h.env.Clock.Cycles()-epoch) / sim.Frequency
}

// HeapSnapshot is a typed, race-free, point-in-time view of everything the
// runtime measured: the full counter block, the simulated clock, latency
// quantiles derived from the sim-clock histograms, and the raw registry
// snapshot for Delta math and generic consumers.
type HeapSnapshot struct {
	// Counters is the complete runtime counter block (guards, fetches,
	// faults, allocator traffic, ...), a superset of Stats.
	Counters sim.Counters
	// SimulatedSeconds is the modeled execution time at 2.4 GHz.
	SimulatedSeconds float64
	// RemoteFetchP50 and RemoteFetchP99 are remote-fetch latency
	// quantiles in simulated cycles, interpolated from the
	// trackfm_remote_fetch_cycles histogram.
	RemoteFetchP50, RemoteFetchP99 float64
	// Metrics is the underlying registry snapshot: every counter, gauge,
	// and histogram, keyed by metric id. Use Metrics.Delta(prev.Metrics)
	// for interval reporting.
	Metrics obs.Snapshot
}

// Snapshot captures the heap's metrics at a point in time. Unlike Stats it
// is lossless: the whole counter block, the latency distributions, and the
// registry snapshot all come along.
func (h *Heap) Snapshot() HeapSnapshot {
	m := h.env.Metrics().Snapshot()
	fetch := m.Histogram("trackfm_remote_fetch_cycles")
	return HeapSnapshot{
		Counters:         h.env.Counters.Snapshot(),
		SimulatedSeconds: h.simulatedSeconds(),
		RemoteFetchP50:   fetch.Quantile(0.50),
		RemoteFetchP99:   fetch.Quantile(0.99),
		Metrics:          m,
	}
}

// Metrics exposes the heap's metrics registry, e.g. for mounting its
// Prometheus Handler in an HTTP server. It carries the runtime counters
// and latency histograms Stats and Snapshot read, and the series of
// everything the heap is built from: the pool (trackfm_pool_*,
// trackfm_thrash_ratio), the compressed tier when enabled
// (trackfm_ctier_*), the far engine's retry budget
// (trackfm_retry_budget_*), and a dialed transport's trackfm_fabric_*
// and trackfm_transport_*.
func (h *Heap) Metrics() *obs.Registry { return h.env.Metrics() }

// ResetStats zeroes the counters and latency histograms and starts a new
// epoch for SimulatedSeconds. The simulated clock itself is not rewound:
// in-flight operation deadlines and eviction ages keep time by it.
func (h *Heap) ResetStats() {
	h.epoch.Store(h.env.Clock.Cycles())
	h.env.ResetStats()
}

// Resize changes the local-memory budget at runtime, in bytes — the
// far-memory answer to a co-tenant squeezing this application's share of
// local DRAM. Shrinking evicts the coldest resident objects until the
// heap fits (pinned objects and a small reserve floor are never taken,
// so in-flight accesses keep making progress); growth reclaims what a
// shrink gave up, up to the starting Config.LocalBytes, which is all the
// local memory the heap ever allocates.
func (h *Heap) Resize(localBytes uint64) error {
	if err := h.rt.Pool().Resize(localBytes); err != nil {
		return fmt.Errorf("farmem: %w", err)
	}
	return nil
}

// Pressure reports the heap's memory-pressure signals.
type Pressure struct {
	// LocalBytes is the current local budget; MaxLocalBytes the Resize
	// growth cap, which is the starting budget (Config.LocalBytes rounded
	// down to whole objects); ResidentBytes the bytes of locally resident
	// objects.
	LocalBytes, MaxLocalBytes, ResidentBytes uint64
	// ThrashRatio is the EWMA fraction of remote fetches that re-fetch
	// an object evicted within the recent thrash window. Near zero when
	// the working set fits; climbing toward one under overcommit.
	ThrashRatio float64
	// Refaults counts fetches of recently evicted objects; Resizes the
	// budget changes applied so far.
	Refaults, Resizes uint64
}

// Pressure snapshots the heap's memory-pressure signals. Safe to call
// while worker goroutines run.
func (h *Heap) Pressure() Pressure {
	p := h.rt.Pool()
	return Pressure{
		LocalBytes:    uint64(p.NumSlots()) * uint64(h.rt.ObjectSize()),
		MaxLocalBytes: uint64(p.MaxSlots()) * uint64(h.rt.ObjectSize()),
		ResidentBytes: p.LocalBytes(),
		ThrashRatio:   p.ThrashRatio(),
		Refaults:      sim.Load(&h.env.Counters.Refaults),
		Resizes:       p.Resizes(),
	}
}

// InUse reports far-heap bytes currently allocated.
func (h *Heap) InUse() uint64 { return h.rt.HeapBytesInUse() }

// alloc is the shared slice constructor.
func (h *Heap) alloc(n int, elemBytes int) (core.Ptr, error) {
	if n < 0 {
		return 0, fmt.Errorf("farmem: negative length %d", n)
	}
	p, err := h.rt.Malloc(uint64(n) * uint64(elemBytes))
	if err != nil {
		return 0, fmt.Errorf("farmem: %w", err)
	}
	return p, nil
}
