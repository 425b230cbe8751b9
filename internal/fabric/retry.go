package fabric

import (
	"time"

	"trackfm/internal/sim"
)

// retryPolicy paces a TCPTransport connection that keeps failing: an
// attempt after a streak of n failed ones first sleeps backoff(n). Backoff
// is exponential (BaseBackoff doubled per failure, capped at MaxBackoff)
// with deterministic jitter: the sleep is scaled into [1/2, 1) of the
// nominal value by a seeded sim.RNG, so two runs with the same seed
// produce the same schedule — experiments with fault injection stay
// reproducible. How many attempts an operation gets is not the policy's
// business: that is far.Engine's RemoteRetries, under its retry budget.
type retryPolicy struct {
	// BaseBackoff is the nominal sleep after one failure (default 1ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 50ms).
	MaxBackoff time.Duration
}

// withDefaults fills zero fields with the default policy.
func (p retryPolicy) withDefaults() retryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	return p
}

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
// schedule deterministic for a fixed seed.
func (p retryPolicy) backoff(fails int, rng *sim.RNG) time.Duration {
	d := expClamp(p.BaseBackoff, p.MaxBackoff, fails)
	// Jitter into [d/2, d): decorrelates competing clients while staying
	// deterministic per seed.
	return time.Duration(uint64(float64(d) * (0.5 + rng.Float64()*0.5)))
}
