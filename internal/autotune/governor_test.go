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
	env.Clock.Advance(g.cfg.Interval)
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
	if _, err := NewGovernor(GovernorConfig{Pool: p, Clock: &env.Clock, High: 0.2, Low: 0.3}); err == nil {
		t.Fatalf("Low above High accepted")
	}
	if _, err := NewGovernor(GovernorConfig{Pool: p, Clock: &env.Clock, High: 0.4, DegradeAt: 0.2}); err == nil {
		t.Fatalf("DegradeAt below High accepted")
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
		High: 0.3, Low: 0.1, Hold: 2,
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
	if d := p.PrefetchDepth(); d != 0 {
		t.Fatalf("throttled prefetch depth = %d, want 0", d)
	}
	if !p.PressureEvict() {
		t.Fatalf("throttled pool not in pressure-evict mode")
	}
	if hw := p.PrefetchHighWater(); hw != 0.75 {
		t.Fatalf("throttled high water = %v, want 0.75", hw)
	}

	// Recovery is hysteretic: Hold consecutive calm readings required.
	ratio = 0.05
	tickAt(g, env)
	if g.State() != GovThrottled {
		t.Fatalf("recovered after one calm reading (Hold=2)")
	}
	// A hot blip resets the calm streak.
	ratio = 0.2 // between Low and High: not calm, not escalating
	tickAt(g, env)
	ratio = 0.05
	tickAt(g, env)
	if g.State() != GovThrottled {
		t.Fatalf("calm streak not reset by mid-band reading")
	}
	tickAt(g, env)
	if g.State() != GovNormal {
		t.Fatalf("did not recover after Hold calm readings: %v", g.State())
	}
	if d := p.PrefetchDepth(); d != baseDepth {
		t.Fatalf("recovered prefetch depth = %d, want %d", d, baseDepth)
	}
	if p.PressureEvict() {
		t.Fatalf("recovered pool still in pressure-evict mode")
	}
	if hw := p.PrefetchHighWater(); hw != 1 {
		t.Fatalf("recovered high water = %v, want 1 (disabled)", hw)
	}
	if g.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", g.Transitions())
	}
}

func TestGovernorDegradeLadder(t *testing.T) {
	p, env := govPool(t)
	ratio := 0.9
	g, err := NewGovernor(GovernorConfig{
		Pool: p, Clock: &env.Clock,
		High: 0.3, Low: 0.1, DegradeAt: 0.8, Hold: 1,
		ratio: func() float64 { return ratio },
	})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	tickAt(g, env) // Normal -> Throttled
	tickAt(g, env) // Throttled -> Degraded
	if g.State() != GovDegraded {
		t.Fatalf("state = %v, want degraded", g.State())
	}
	if !p.Far().Degraded() {
		t.Fatalf("pool not forced degraded")
	}
	// Recovery retraces the ladder one state per calm hold.
	ratio = 0.0
	tickAt(g, env)
	if g.State() != GovThrottled || p.Far().Degraded() {
		t.Fatalf("degrade not lifted: state=%v degraded=%v", g.State(), p.Far().Degraded())
	}
	tickAt(g, env)
	if g.State() != GovNormal {
		t.Fatalf("state = %v, want normal", g.State())
	}
}

func TestGovernorTickRateLimited(t *testing.T) {
	p, env := govPool(t)
	ratio := 0.9
	g, err := NewGovernor(GovernorConfig{
		Pool: p, Clock: &env.Clock,
		High: 0.3, Interval: 1000,
		ratio: func() float64 { return ratio },
	})
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	// Within one interval of construction, Tick is a no-op.
	env.Clock.Advance(10)
	g.Tick()
	if g.State() != GovNormal {
		t.Fatalf("tick inside the interval made a decision")
	}
	env.Clock.Advance(1000)
	g.Tick()
	if g.State() != GovThrottled {
		t.Fatalf("tick past the interval made no decision")
	}
}

// TestGovernorShrinksTierFirst verifies the escalation ladder squeezes
// the compressed middle tier before anything else gives ground: half the
// budget when throttled, a quarter when degraded, full restore on
// recovery to Normal.
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
		High: 0.3, Low: 0.1, DegradeAt: 0.8, Hold: 1,
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
	tickAt(g, env) // Throttled -> Degraded
	if g.State() != GovDegraded {
		t.Fatalf("state = %v, want degraded", g.State())
	}
	if b := tier.Budget(); b != tierBudget/4 {
		t.Fatalf("degraded tier budget = %d, want %d", b, tierBudget/4)
	}

	ratio = 0.05
	tickAt(g, env) // Degraded -> Throttled
	if b := tier.Budget(); b != tierBudget/2 {
		t.Fatalf("re-throttled tier budget = %d, want %d", b, tierBudget/2)
	}
	tickAt(g, env) // Throttled -> Normal
	if g.State() != GovNormal {
		t.Fatalf("state = %v, want normal", g.State())
	}
	if b := tier.Budget(); b != tierBudget {
		t.Fatalf("recovered tier budget = %d, want %d", b, tierBudget)
	}
}
