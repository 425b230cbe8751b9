package autotune

import (
	"testing"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

func govPool(t *testing.T) (*aifm.Pool, *sim.Env) {
	t.Helper()
	env := sim.NewEnv()
	p, err := aifm.NewPool(aifm.Config{
		Env:           env,
		ObjectSize:    64,
		HeapSize:      1 << 16,
		LocalBudget:   1 << 12,
		AutoPrefetch:  true,
		PrefetchDepth: 4,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p, env
}

// tickAt advances the clock past the governor interval and ticks once.
func tickAt(g *Governor, env *sim.Env) {
	env.Clock.Advance(g.interval)
	g.Tick()
}

func TestGovernorValidation(t *testing.T) {
	p, env := govPool(t)
	if _, err := NewGovernor(GovernorConfig{Clock: &env.Clock}); err == nil {
		t.Fatalf("missing Pool accepted")
	}
	if _, err := NewGovernor(GovernorConfig{Pool: p}); err == nil {
		t.Fatalf("missing Clock accepted")
	}
	g, err := NewGovernor(GovernorConfig{Pool: p, Clock: &env.Clock})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	if g.State() != GovNormal {
		t.Fatalf("fresh governor state = %v", g.State())
	}
}

func TestGovernorThrottleAndRecover(t *testing.T) {
	p, env := govPool(t)
	ratio := 0.0
	g, err := NewGovernor(GovernorConfig{
		Pool: p, Clock: &env.Clock,
		ratio: func() float64 { return ratio },
	})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	baseDepth := p.PrefetchDepth()

	// Calm readings keep it Normal.
	tickAt(g, env)
	if g.State() != GovNormal {
		t.Fatalf("calm pool throttled")
	}
	// One hot reading steps up immediately.
	ratio = 0.5
	tickAt(g, env)
	if g.State() != GovThrottled {
		t.Fatalf("hot reading did not throttle: %v", g.State())
	}
	if !p.Throttled() {
		t.Fatalf("governor throttled but the pool is not")
	}
	if d := p.PrefetchDepth(); d != 0 {
		t.Fatalf("throttled prefetch depth = %d, want 0", d)
	}

	// Recovery is hysteretic: govHold consecutive calm readings required.
	ratio = 0.05
	tickAt(g, env)
	tickAt(g, env)
	if g.State() != GovThrottled {
		t.Fatalf("recovered after two calm readings (govHold=%d)", govHold)
	}
	// A hot blip resets the calm streak.
	ratio = 0.2 // between govLow and govHigh: not calm, not escalating
	tickAt(g, env)
	ratio = 0.05
	tickAt(g, env)
	tickAt(g, env)
	if g.State() != GovThrottled {
		t.Fatalf("calm streak not reset by mid-band reading")
	}
	tickAt(g, env)
	if g.State() != GovNormal {
		t.Fatalf("did not recover after govHold calm readings: %v", g.State())
	}
	if p.Throttled() {
		t.Fatalf("governor recovered but the pool is still throttled")
	}
	if d := p.PrefetchDepth(); d != baseDepth {
		t.Fatalf("recovered prefetch depth = %d, want %d", d, baseDepth)
	}
	if g.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", g.Transitions())
	}
}

func TestGovernorTickRateLimited(t *testing.T) {
	p, env := govPool(t)
	ratio := 0.9
	g, err := NewGovernor(GovernorConfig{
		Pool: p, Clock: &env.Clock,
		ratio: func() float64 { return ratio },
	})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	if want := p.ThrashWindow() / 8; g.interval != want || want < 2 {
		t.Fatalf("interval = %d, want an eighth of the thrash window (%d)", g.interval, want)
	}
	// Within one interval of construction, Tick is a no-op.
	env.Clock.Advance(g.interval - 1)
	g.Tick()
	if g.State() != GovNormal {
		t.Fatalf("tick inside the interval made a decision")
	}
	env.Clock.Advance(1)
	g.Tick()
	if g.State() != GovThrottled {
		t.Fatalf("tick past the interval made no decision")
	}
}

// TestGovernorShrinksTierFirst verifies that throttling squeezes the
// compressed middle tier — the most expendable consumer of local bytes —
// to half its budget, and that recovery to Normal restores it in full.
func TestGovernorShrinksTierFirst(t *testing.T) {
	env := sim.NewEnv()
	const tierBudget = 1 << 16
	p, err := aifm.NewPool(aifm.Config{
		Env:              env,
		ObjectSize:       64,
		HeapSize:         1 << 16,
		LocalBudget:      1 << 12,
		AutoPrefetch:     true,
		PrefetchDepth:    4,
		CompressedBudget: tierBudget,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	tier := p.Far().Tier()
	if tier == nil {
		t.Fatalf("pool with CompressedBudget has no tier")
	}
	ratio := 0.9
	g, err := NewGovernor(GovernorConfig{
		Pool: p, Clock: &env.Clock,
		ratio: func() float64 { return ratio },
	})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}

	tickAt(g, env) // Normal -> Throttled
	if g.State() != GovThrottled {
		t.Fatalf("state = %v, want throttled", g.State())
	}
	if b := tier.Budget(); b != tierBudget/2 {
		t.Fatalf("throttled tier budget = %d, want %d", b, tierBudget/2)
	}
	tickAt(g, env) // still hot: no further squeeze
	if b := tier.Budget(); b != tierBudget/2 {
		t.Fatalf("tier budget after a second hot reading = %d, want %d", b, tierBudget/2)
	}

	ratio = 0.05
	for i := 0; i < govHold; i++ {
		tickAt(g, env)
	}
	if g.State() != GovNormal {
		t.Fatalf("state = %v, want normal", g.State())
	}
	if b := tier.Budget(); b != tierBudget {
		t.Fatalf("recovered tier budget = %d, want %d", b, tierBudget)
	}
}

// TestGovernorThresholds pins the constants every -exp thrash run has
// used (until now only BENCH_thrash.json held them, implicitly): a reading
// of 0.35 throttles and 0.34 does not; three readings at High/3 recover
// and two do not, nor do three just above it.
func TestGovernorThresholds(t *testing.T) {
	for _, c := range []struct {
		name       string
		hot        float64
		calm       float64
		calmTicks  int
		wantHot    GovernorState
		wantSettle GovernorState
	}{
		{"0.34 stays normal", 0.34, 0, 0, GovNormal, GovNormal},
		{"0.35 throttles; two calm readings do not recover", 0.35, 0.35 / 3, 2, GovThrottled, GovThrottled},
		{"three calm readings recover", 0.35, 0.35 / 3, 3, GovThrottled, GovNormal},
		{"three readings above High/3 do not", 0.35, 0.12, 3, GovThrottled, GovThrottled},
	} {
		p, env := govPool(t)
		ratio := c.hot
		g, err := NewGovernor(GovernorConfig{Pool: p, Clock: &env.Clock, ratio: func() float64 { return ratio }})
		if err != nil {
			t.Fatalf("NewGovernor: %v", err)
		}
		tickAt(g, env)
		if g.State() != c.wantHot {
			t.Errorf("%s: after a reading of %v state = %v, want %v", c.name, c.hot, g.State(), c.wantHot)
		}
		ratio = c.calm
		for i := 0; i < c.calmTicks; i++ {
			tickAt(g, env)
		}
		if g.State() != c.wantSettle {
			t.Errorf("%s: after %d readings of %v state = %v, want %v", c.name, c.calmTicks, c.calm, g.State(), c.wantSettle)
		}
	}
}
