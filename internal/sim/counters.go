package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Counters tallies the runtime events the paper's evaluation reports:
// guard executions by path, page faults by kind, bytes moved over the
// interconnect, evacuations, and prefetch outcomes. The zero value is
// ready to use.
//
// Concurrency contract: writers increment fields with Inc/Add (atomic);
// concurrent observers (stats tickers, the obs registry, per-phase bench
// reporting) read through Snapshot. FastPathGuards and BoundaryChecks may
// arrive in sums from a core.Meter, under the flush contract of Clock. The
// fields stay plain uint64 so the
// struct remains copyable and the aggregate accessors below keep working
// on quiescent copies — Snapshot returns exactly such a copy.
type Counters struct {
	// TrackFM guard events.
	CustodyRejects  uint64 // pointer not TrackFM-managed; original access runs
	FastPathGuards  uint64
	SlowPathGuards  uint64
	BoundaryChecks  uint64 // loop-chunking per-iteration checks
	LocalityGuards  uint64 // loop-chunking object-boundary pins
	ChunkInits      uint64 // loop-chunking tfm_init runtime calls
	RemoteFetches   uint64 // slow paths that required a remote fetch
	CriticalFetches uint64 // loads/stores that blocked on a remote fetch

	// Fastswap events.
	MinorFaults uint64 // first touch of a page: zero-filled locally
	MajorFaults uint64 // page fetched from the remote node

	// Data movement.
	BytesFetched  uint64 // remote -> local
	BytesEvicted  uint64 // local -> remote
	Evacuations   uint64 // objects evacuated
	PageEvictions uint64 // pages reclaimed

	// Prefetching.
	PrefetchIssued uint64
	PrefetchHits   uint64 // slow paths avoided because data was prefetched

	// Allocation events.
	Mallocs uint64
	Frees   uint64

	// Fault handling (error-aware transports only; the in-process
	// SimLink never fails). Each failed remote operation attempt a
	// runtime observes is counted once, whether it was retried or
	// surfaced — so these reconcile exactly against an injector's
	// fault counts.
	RemoteFetchFaults uint64 // failed fetch attempts observed by a runtime
	RemotePushFaults  uint64 // failed push/delete attempts observed by a runtime
	EvictionStalls    uint64 // evictions aborted after push retries exhausted

	// Overload control (deadline-bearing configs only; all zero without
	// an OpDeadline).
	DeadlineMisses  uint64 // remote ops that failed with ErrDeadlineExceeded
	OverloadRejects uint64 // remote ops shed by server admission control
	DegradedEntries uint64 // times a pool entered degraded mode

	// Concurrency events (multi-goroutine runtimes only; all zero in a
	// single-goroutine run).
	StripeContention   uint64 // pool stripe-lock acquisitions that had to wait
	SingleflightShared uint64 // demand localizations served by another caller's in-flight fetch

	// Memory pressure (elastic budget + thrash detection).
	Refaults                uint64 // fetches of an object evicted within the thrash window
	PrefetchSkippedPressure uint64 // prefetches skipped because occupancy was above the high-water mark

	// Compressed middle tier (zero when no CompressedBudget is set).
	TierHits    uint64 // localizations served by decompressing from the tier
	TierMisses  uint64 // tier probes that fell through to the fabric
	TierDemotes uint64 // evictions that parked a compressed copy in the tier
}

// Inc atomically adds one to a counter field: sim.Inc(&env.Counters.X).
func Inc(p *uint64) { atomic.AddUint64(p, 1) }

// Add atomically adds n to a counter field.
func Add(p *uint64, n uint64) { atomic.AddUint64(p, n) }

// Load atomically reads a counter field.
func Load(p *uint64) uint64 { return atomic.LoadUint64(p) }

// Reset zeroes all counters. Like Snapshot it loads-and-stores each field
// atomically, so it can run against concurrent writers without racing
// (writers mid-increment may land on either side of the reset).
func (c *Counters) Reset() {
	for _, p := range c.fields() {
		atomic.StoreUint64(p, 0)
	}
}

// fields enumerates every counter field, in declaration order. Snapshot,
// Reset, and the obs registration iterate this single list so a new field
// only needs to be added here (and named in metricDefs) once.
func (c *Counters) fields() []*uint64 {
	return []*uint64{
		&c.CustodyRejects, &c.FastPathGuards, &c.SlowPathGuards,
		&c.BoundaryChecks, &c.LocalityGuards, &c.ChunkInits,
		&c.RemoteFetches, &c.CriticalFetches,
		&c.MinorFaults, &c.MajorFaults,
		&c.BytesFetched, &c.BytesEvicted, &c.Evacuations, &c.PageEvictions,
		&c.PrefetchIssued, &c.PrefetchHits,
		&c.Mallocs, &c.Frees,
		&c.RemoteFetchFaults, &c.RemotePushFaults, &c.EvictionStalls,
		&c.DeadlineMisses, &c.OverloadRejects, &c.DegradedEntries,
		&c.StripeContention, &c.SingleflightShared,
		&c.Refaults, &c.PrefetchSkippedPressure,
		&c.TierHits, &c.TierMisses, &c.TierDemotes,
	}
}

// Snapshot returns a point-in-time copy of the counters, loading each
// field atomically. The copy is quiescent plain data: all accessor methods
// (Guards, Faults, String, ...) are safe on it, and Delta subtracts two of
// them. This is the race-free read path for tickers running concurrently
// with a pool or swap runtime.
func (c *Counters) Snapshot() Counters {
	var out Counters
	src, dst := c.fields(), out.fields()
	for i, p := range src {
		*dst[i] = atomic.LoadUint64(p)
	}
	return out
}

// Delta returns the field-wise difference c - prev, for interval reporting
// between two Snapshots.
func (c Counters) Delta(prev Counters) Counters {
	src, sub := c.fields(), prev.fields()
	var out Counters
	dst := out.fields()
	for i := range src {
		*dst[i] = *src[i] - *sub[i]
	}
	return out
}

// Guards reports the total guard checks executed (fast + slow), the count
// the paper plots against Fastswap's fault count in Figs. 14b and 16b.
func (c *Counters) Guards() uint64 { return c.FastPathGuards + c.SlowPathGuards }

// Faults reports the total Fastswap page faults (minor + major).
func (c *Counters) Faults() uint64 { return c.MinorFaults + c.MajorFaults }

// Amplification reports BytesFetched divided by the working-set size, the
// paper's I/O-amplification metric (e.g. "Fastswap transfers 43x the
// working set"). Returns 0 when workingSet is 0.
func (c *Counters) Amplification(workingSet uint64) float64 {
	if workingSet == 0 {
		return 0
	}
	return float64(c.BytesFetched) / float64(workingSet)
}

// String renders a compact human-readable summary of the non-zero counters.
func (c *Counters) String() string {
	var b strings.Builder
	add := func(name string, v uint64) {
		if v != 0 {
			fmt.Fprintf(&b, "%s=%d ", name, v)
		}
	}
	add("fast", c.FastPathGuards)
	add("slow", c.SlowPathGuards)
	add("custodyRej", c.CustodyRejects)
	add("bndChk", c.BoundaryChecks)
	add("locGuard", c.LocalityGuards)
	add("remoteFetch", c.RemoteFetches)
	add("minorFault", c.MinorFaults)
	add("majorFault", c.MajorFaults)
	add("bytesIn", c.BytesFetched)
	add("bytesOut", c.BytesEvicted)
	add("evac", c.Evacuations)
	add("pageEvict", c.PageEvictions)
	add("pfIssued", c.PrefetchIssued)
	add("pfHits", c.PrefetchHits)
	add("fetchFault", c.RemoteFetchFaults)
	add("pushFault", c.RemotePushFaults)
	add("evictStall", c.EvictionStalls)
	add("dlMiss", c.DeadlineMisses)
	add("overload", c.OverloadRejects)
	add("degraded", c.DegradedEntries)
	add("lockWait", c.StripeContention)
	add("sfShared", c.SingleflightShared)
	add("refault", c.Refaults)
	add("pfSkip", c.PrefetchSkippedPressure)
	add("tierHit", c.TierHits)
	add("tierMiss", c.TierMisses)
	add("tierDemote", c.TierDemotes)
	return strings.TrimSpace(b.String())
}

// Env bundles the pieces every backend needs: a clock to charge, counters
// to tally, and the cost model to consult. A single Env is threaded through
// one experiment run so that all components observe one logical timeline.
// Metrics() and Lat() lazily attach an obs.Registry with every counter,
// the clock, and the latency histograms pre-registered. Env must not be
// copied once Metrics or Lat has been called.
type Env struct {
	Clock    Clock
	Counters Counters
	Costs    CostModel

	obs obsState
}

// NewEnv returns an Env with the default paper-calibrated cost model.
func NewEnv() *Env {
	return &Env{Costs: DefaultCosts()}
}

// Reset clears the clock, counters, and latency histograms but keeps the
// cost model and the registry (registered metrics simply read zero again).
// Rewinding the clock is only for an Env nothing else keeps time by: a
// replica set's breaker deadlines, a fabric.Deadline in flight and the
// pool's eviction ages are absolute readings of it (see ResetStats).
func (e *Env) Reset() {
	e.Clock.Reset()
	e.ResetStats()
}

// ResetStats clears the counters and latency histograms and leaves the
// clock where it is.
func (e *Env) ResetStats() {
	e.Counters.Reset()
	e.resetObs()
}
