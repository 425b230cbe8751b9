package sim

import (
	"sync"

	"trackfm/internal/obs"
)

// Latencies bundles the sim-clock latency histograms every runtime
// observes into: the far-memory operations whose distributions the
// paper's evaluation reasons about. Units are simulated clock cycles
// (divide by Frequency for seconds); buckets are
// obs.DefaultCycleBuckets.
type Latencies struct {
	RemoteFetch    *obs.Histogram // fetch one object/page from the remote node
	RemotePush     *obs.Histogram // push one object/page to the remote node
	Evacuation     *obs.Histogram // full evacuation of one slot (push + bookkeeping)
	GuardSlow      *obs.Histogram // guard slow path end-to-end (localize incl. fetch)
	Failover       *obs.Histogram // replicated fetch that needed >=1 failover
	LockWait       *obs.Histogram // contended pool stripe-lock waits (wall time converted to cycles)
	DeadlineMiss   *obs.Histogram // how far past its budget a deadline-missing op finished
	TierDecompress *obs.Histogram // promotion from the compressed tier (decompress into the arena)
}

// metricDefs names each Counters field for the obs registry, in the same
// order as (*Counters).fields().
var metricDefs = []struct{ name, help string }{
	{"trackfm_guard_custody_rejects_total", "Guarded accesses to pointers not managed by TrackFM."},
	{"trackfm_guard_fast_total", "Guard executions resolved on the fast path."},
	{"trackfm_guard_slow_total", "Guard executions that took the slow path."},
	{"trackfm_boundary_checks_total", "Loop-chunking per-iteration boundary checks."},
	{"trackfm_locality_guards_total", "Loop-chunking object-boundary pins."},
	{"trackfm_chunk_inits_total", "Loop-chunking tfm_init runtime calls."},
	{"trackfm_remote_fetches_total", "Slow paths that required a remote fetch."},
	{"trackfm_critical_fetches_total", "Loads/stores that blocked on a remote fetch."},
	{"trackfm_minor_faults_total", "Fastswap first-touch faults, zero-filled locally."},
	{"trackfm_major_faults_total", "Fastswap faults fetched from the remote node."},
	{"trackfm_bytes_fetched_total", "Bytes moved remote to local."},
	{"trackfm_bytes_evicted_total", "Bytes moved local to remote."},
	{"trackfm_evacuations_total", "Objects evacuated to far memory."},
	{"trackfm_page_evictions_total", "Pages reclaimed by fastswap."},
	{"trackfm_prefetch_issued_total", "Prefetches issued."},
	{"trackfm_prefetch_hits_total", "Slow paths avoided by a completed prefetch."},
	{"trackfm_mallocs_total", "Far-memory allocations."},
	{"trackfm_frees_total", "Far-memory frees."},
	{"trackfm_remote_fetch_faults_total", "Failed remote fetch attempts observed by a runtime."},
	{"trackfm_remote_push_faults_total", "Failed remote push/delete attempts observed by a runtime."},
	{"trackfm_eviction_stalls_total", "Evictions aborted after push retries were exhausted."},
	{"trackfm_deadline_misses_total", "Remote operations that failed with ErrDeadlineExceeded."},
	{"trackfm_overload_rejects_total", "Remote operations shed by server-side admission control."},
	{"trackfm_degraded_entries_total", "Times a pool entered degraded mode after repeated deadline misses."},
	{"trackfm_stripe_contention_total", "Pool stripe-lock acquisitions that had to wait."},
	{"trackfm_singleflight_shared_total", "Demand localizations served by another caller's in-flight fetch."},
	{"trackfm_refaults_total", "Fetches that re-localized an object evicted within the thrash window."},
	{"trackfm_prefetch_skipped_pressure_total", "Prefetches skipped because pool occupancy exceeded the admission high-water mark."},
	{"trackfm_tier_hits_total", "Localizations served by decompressing from the compressed middle tier."},
	{"trackfm_tier_misses_total", "Compressed-tier probes that fell through to the fabric."},
	{"trackfm_tier_demotes_total", "Evictions that parked a compressed copy in the middle tier."},
}

// obsState holds the lazily built registry wiring so Env itself stays a
// plain bundle of Clock/Counters/Costs.
type obsState struct {
	once     sync.Once
	registry *obs.Registry
	lat      *Latencies
}

func (e *Env) initObs() {
	e.obs.once.Do(func() {
		reg := obs.NewRegistry()
		for i, p := range e.Counters.fields() {
			p := p
			reg.CounterFunc(metricDefs[i].name, metricDefs[i].help, func() uint64 { return Load(p) })
		}
		reg.GaugeFunc("trackfm_sim_clock_cycles",
			"Simulated clock position in cycles (2.4 GHz).",
			func() float64 { return float64(e.Clock.Cycles()) })
		lat := &Latencies{
			RemoteFetch: reg.Histogram("trackfm_remote_fetch_cycles",
				"Remote fetch latency in simulated cycles.", nil),
			RemotePush: reg.Histogram("trackfm_remote_push_cycles",
				"Remote push latency in simulated cycles.", nil),
			Evacuation: reg.Histogram("trackfm_evacuation_cycles",
				"Slot evacuation latency in simulated cycles.", nil),
			GuardSlow: reg.Histogram("trackfm_guard_slow_cycles",
				"Guard slow-path latency in simulated cycles.", nil),
			Failover: reg.Histogram("trackfm_replica_failover_cycles",
				"Latency of replicated fetches that needed at least one failover, in clock cycles of the replica set's clock.", nil),
			LockWait: reg.Histogram("trackfm_lock_wait_cycles",
				"Contended stripe-lock wait time, wall nanoseconds converted to cycles at the simulated frequency.", nil),
			DeadlineMiss: reg.Histogram("trackfm_deadline_miss_cycles",
				"Overrun of deadline-missing remote operations, in simulated cycles past the budget.", nil),
			TierDecompress: reg.Histogram("trackfm_tier_decompress_cycles",
				"Latency of promotions served from the compressed tier, in simulated cycles.", nil),
		}
		e.obs.registry = reg
		e.obs.lat = lat
	})
}

// Metrics returns the Env's metrics registry, creating it on first use.
// Every Counters field is pre-registered as a trackfm_* counter reading
// the canonical atomic value, the clock as a gauge, and the Latencies
// histograms; subsystems wired to this Env (fabric stats, replica sets,
// stores) add their own metrics via their Register methods.
func (e *Env) Metrics() *obs.Registry {
	e.initObs()
	return e.obs.registry
}

// Lat returns the Env's latency histograms, creating the registry wiring
// on first use. Runtimes time an operation by sampling Clock.Cycles()
// around it and observing the difference — simulated time, so the
// distributions are deterministic for a deterministic workload.
func (e *Env) Lat() *Latencies {
	e.initObs()
	return e.obs.lat
}

// resetObs zeroes the latency histograms if the registry was ever built.
func (e *Env) resetObs() {
	if e.obs.lat == nil {
		return
	}
	for _, h := range []*obs.Histogram{
		e.obs.lat.RemoteFetch, e.obs.lat.RemotePush,
		e.obs.lat.Evacuation, e.obs.lat.GuardSlow, e.obs.lat.Failover,
		e.obs.lat.LockWait, e.obs.lat.DeadlineMiss, e.obs.lat.TierDecompress,
	} {
		h.Reset()
	}
}
