package aifm

import (
	"math"
	"testing"

	"trackfm/internal/sim"
)

// govPool builds a 64-slot pool with stride prefetch on, so a throttle
// shows in PrefetchDepth, and an optional compressed tier.
func govPool(t *testing.T, tierBudget uint64) (*Pool, *sim.Env) {
	t.Helper()
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12, func(c *Config) {
		c.AutoPrefetch = true
		c.PrefetchDepth = 4
		c.CompressedBudget = tierBudget
	})
	return p, env
}

// setRatio makes the thrash detector read r, as if its EWMA had settled
// there; these pools see no traffic that would move it.
func setRatio(p *Pool, r float64) { p.thrashEWMA.Store(math.Float64bits(r)) }

// govInterval is the spacing of Govern's decisions: an eighth of the
// thrash window.
func govInterval(p *Pool) uint64 { return max(p.thrashWindow/8, 1) }

// governAt advances the clock past the governor interval and governs once.
func governAt(p *Pool, env *sim.Env) {
	env.Clock.Advance(govInterval(p))
	p.Govern()
}

func TestGovernorThrottleAndRecover(t *testing.T) {
	p, env := govPool(t, 0)
	baseDepth := p.PrefetchDepth()

	// Calm readings keep it normal.
	governAt(p, env)
	if p.Throttled() {
		t.Fatalf("calm pool throttled")
	}
	// One hot reading steps up immediately.
	setRatio(p, 0.5)
	governAt(p, env)
	if !p.Throttled() {
		t.Fatalf("hot reading did not throttle")
	}
	if d := p.PrefetchDepth(); d != 0 {
		t.Fatalf("throttled prefetch depth = %d, want 0", d)
	}

	// Recovery is hysteretic: govHold consecutive calm readings required.
	setRatio(p, 0.05)
	governAt(p, env)
	governAt(p, env)
	if !p.Throttled() {
		t.Fatalf("recovered after two calm readings (govHold=%d)", govHold)
	}
	// A hot blip resets the calm streak.
	setRatio(p, 0.2) // between govLow and govHigh: not calm, not escalating
	governAt(p, env)
	setRatio(p, 0.05)
	governAt(p, env)
	governAt(p, env)
	if !p.Throttled() {
		t.Fatalf("calm streak not reset by mid-band reading")
	}
	governAt(p, env)
	if p.Throttled() {
		t.Fatalf("did not recover after govHold calm readings")
	}
	if d := p.PrefetchDepth(); d != baseDepth {
		t.Fatalf("recovered prefetch depth = %d, want %d", d, baseDepth)
	}
	if n := p.gov.throttles.Load(); n != 1 {
		t.Fatalf("throttles = %d, want 1", n)
	}
}

func TestGovernorTickRateLimited(t *testing.T) {
	p, env := govPool(t, 0)
	setRatio(p, 0.9)
	iv := govInterval(p)
	if iv < 2 {
		t.Fatalf("governor interval = %d, too short to test", iv)
	}
	// The first decision comes one interval after clock zero; a pool's
	// construction spends no cycles.
	if now := env.Clock.Cycles(); now != 0 {
		t.Fatalf("clock = %d after NewPool, want 0", now)
	}
	env.Clock.Advance(iv - 1)
	p.Govern()
	if p.Throttled() {
		t.Fatalf("Govern inside the interval made a decision")
	}
	env.Clock.Advance(1)
	p.Govern()
	if !p.Throttled() {
		t.Fatalf("Govern past the interval made no decision")
	}
}

// TestGovernorShrinksTierFirst verifies that throttling squeezes the
// compressed middle tier — the most expendable consumer of local bytes —
// to half its budget, and that recovery to normal restores it in full.
func TestGovernorShrinksTierFirst(t *testing.T) {
	const tierBudget = 1 << 16
	p, env := govPool(t, tierBudget)
	tier := p.Far().Tier()
	if tier == nil {
		t.Fatalf("pool with CompressedBudget has no tier")
	}
	setRatio(p, 0.9)

	governAt(p, env) // normal -> throttled
	if !p.Throttled() {
		t.Fatalf("hot reading did not throttle")
	}
	if b := tier.Budget(); b != tierBudget/2 {
		t.Fatalf("throttled tier budget = %d, want %d", b, tierBudget/2)
	}
	governAt(p, env) // still hot: no further squeeze
	if b := tier.Budget(); b != tierBudget/2 {
		t.Fatalf("tier budget after a second hot reading = %d, want %d", b, tierBudget/2)
	}

	setRatio(p, 0.05)
	for i := 0; i < govHold; i++ {
		governAt(p, env)
	}
	if p.Throttled() {
		t.Fatalf("did not recover after govHold calm readings")
	}
	if b := tier.Budget(); b != tierBudget {
		t.Fatalf("recovered tier budget = %d, want %d", b, tierBudget)
	}
}

// TestGovernorThresholds pins the constants every -exp thrash run has
// used: a reading of 0.35 throttles and 0.34 does not; three readings at
// 0.35/3 recover and two do not, nor do three just above it. The literals
// are the test's own, so a changed govHigh, govLow or govHold fails here.
func TestGovernorThresholds(t *testing.T) {
	for _, c := range []struct {
		name          string
		hot           float64
		calm          float64
		calmTicks     int
		wantHot       bool
		wantThrottled bool
	}{
		{"0.34 stays normal", 0.34, 0, 0, false, false},
		{"0.35 throttles; two calm readings do not recover", 0.35, 0.35 / 3, 2, true, true},
		{"three calm readings recover", 0.35, 0.35 / 3, 3, true, false},
		{"three readings above High/3 do not", 0.35, 0.12, 3, true, true},
	} {
		p, env := govPool(t, 0)
		setRatio(p, c.hot)
		governAt(p, env)
		if p.Throttled() != c.wantHot {
			t.Errorf("%s: after a reading of %v throttled = %v, want %v", c.name, c.hot, p.Throttled(), c.wantHot)
		}
		setRatio(p, c.calm)
		for i := 0; i < c.calmTicks; i++ {
			governAt(p, env)
		}
		if p.Throttled() != c.wantThrottled {
			t.Errorf("%s: after %d readings of %v throttled = %v, want %v", c.name, c.calmTicks, c.calm, p.Throttled(), c.wantThrottled)
		}
	}
}
