package fabric

import (
	"time"

	"trackfm/internal/sim"
)

// A TCPTransport connection that keeps failing is paced: an attempt after
// a streak of n failed ones first sleeps backoff(n). Backoff is exponential
// (baseBackoff doubled per failure, capped at maxBackoff) with
// deterministic jitter: the sleep is scaled into [1/2, 1) of the nominal
// value by a sim.RNG with a fixed seed, so two runs produce the same
// schedule — experiments with fault injection stay reproducible. How many
// attempts an operation gets is not the pacing's business: that is
// far.Engine's RemoteRetries, under its retry budget. opTimeout bounds
// one attempt's request write and response read.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 50 * time.Millisecond
	opTimeout   = 2 * time.Second
)

// expClamp doubles base per completed retry, clamped at max. This is the
// one exponential-growth rule shared by every backoff in the package.
func expClamp(base, max time.Duration, retry int) time.Duration {
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// backoff returns the jittered sleep after a streak of fails failed
// attempts (1-based). It consumes one value from rng, which makes the
// schedule deterministic.
func backoff(fails int, rng *sim.RNG) time.Duration {
	d := expClamp(baseBackoff, maxBackoff, fails)
	// Jitter into [d/2, d): decorrelates competing clients while staying
	// deterministic per seed.
	return time.Duration(uint64(float64(d) * (0.5 + rng.Float64()*0.5)))
}
