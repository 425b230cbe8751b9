package bench

import (
	"fmt"
	"io"

	"trackfm/internal/sim"
)

// PhaseWriter, when non-nil, receives one summary line per backend run
// ("phase"): the counters the phase produced plus p50/p99 remote-fetch
// latency from the environment's sim-clock histograms. The benchmark CLI
// wires it to stdout under -phase-stats; experiments run unchanged, the
// reporting reads an obs.Snapshot on the side.
var PhaseWriter io.Writer

// reportPhase prints one named backend run's totals; env is the run's own.
func reportPhase(name string, env *sim.Env) {
	if PhaseWriter == nil {
		return
	}
	m := env.Metrics().Snapshot()
	fetch := m.Histogram("trackfm_remote_fetch_cycles")
	fmt.Fprintf(PhaseWriter,
		"phase %-9s guards=%d/%d fetches=%d bytesFetched=%d bytesEvicted=%d evacuations=%d fetch_p50=%.0fcyc fetch_p99=%.0fcyc\n",
		name,
		m.Counter("trackfm_guard_fast_total"),
		m.Counter("trackfm_guard_slow_total"),
		m.Counter("trackfm_remote_fetches_total"),
		m.Counter("trackfm_bytes_fetched_total"),
		m.Counter("trackfm_bytes_evicted_total"),
		m.Counter("trackfm_evacuations_total"),
		fetch.Quantile(0.50),
		fetch.Quantile(0.99),
	)
}
