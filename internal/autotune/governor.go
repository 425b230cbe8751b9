// governor.go implements the anti-thrash governor: the runtime-tuning
// counterpart to this package's compile-time object-size search. Where
// the tuner picks a configuration once, the governor is a control loop on
// the simulated clock that watches the pool's EWMA thrash ratio and steps
// through three states:
//
//	Normal    — full prefetch depth, normal eviction.
//	Throttled — stride prefetch paused, prefetch admission gated at a
//	            tight high-water mark, eviction in pressure mode
//	            (prefetched-but-unused residents reclaimed first).
//	Degraded  — optionally (DegradeAt > 0), the pool is forced into the
//	            fail-fast degraded state: resident objects keep serving
//	            and remote fetches shed, bounding the thrash spiral.
//
// Escalation is immediate (one hot reading steps up); recovery is
// hysteretic (Hold consecutive calm readings per step down), so the
// governor does not flap across the threshold while the ratio decays.
package autotune

import (
	"fmt"
	"sync"
	"sync/atomic"

	"trackfm/internal/aifm"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// GovernorState is the anti-thrash control state.
type GovernorState int32

const (
	GovNormal GovernorState = iota
	GovThrottled
	GovDegraded
)

func (s GovernorState) String() string {
	switch s {
	case GovNormal:
		return "normal"
	case GovThrottled:
		return "throttled"
	case GovDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("GovernorState(%d)", int32(s))
	}
}

// GovernorConfig parameterizes an anti-thrash governor.
type GovernorConfig struct {
	// Pool is the pool under control. Required.
	Pool *aifm.Pool
	// Clock paces Tick decisions. Required.
	Clock *sim.Clock
	// High is the thrash ratio at or above which the governor throttles
	// (default 0.35).
	High float64
	// Low is the thrash ratio at or below which a reading counts as calm
	// (default High/3).
	Low float64
	// DegradeAt is the ratio at or above which a throttled pool is forced
	// into the fail-fast degraded state. Zero or negative disables the
	// degrade stage (the default): shedding fetches is a last resort the
	// deployment must opt into.
	DegradeAt float64
	// Interval is the minimum simulated cycles between decisions; zero
	// selects 1/8 of the pool's thrash window, so several EWMA samples
	// land between readings.
	Interval uint64
	// Hold is how many consecutive calm readings precede each recovery
	// step (default 3).
	Hold int
	// ThrottleHighWater is the prefetch-admission gate imposed while
	// throttled (default 0.75); the pool's own configured gate is
	// restored on recovery.
	ThrottleHighWater float64

	// ratio overrides the thrash signal, for tests; nil reads
	// Pool.ThrashRatio.
	ratio func() float64
}

// Governor is the anti-thrash control loop. It is driven, not scheduled:
// callers invoke Tick from their access loop (or a ticker goroutine) and
// the governor rate-limits itself on the simulated clock, so a
// deterministic workload yields a deterministic control trace. Tick is
// safe for concurrent use.
type Governor struct {
	cfg   GovernorConfig
	state atomic.Int32

	mu          sync.Mutex // serializes decisions and knob flips
	lastTick    uint64
	calm        int
	savedDepth  int
	savedHW     float64
	savedTier   uint64
	transitions atomic.Uint64
	throttles   atomic.Uint64
	degrades    atomic.Uint64
}

// NewGovernor validates cfg and returns a governor in GovNormal. It does
// not start any goroutine; drive it with Tick.
func NewGovernor(cfg GovernorConfig) (*Governor, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("autotune: GovernorConfig.Pool is required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("autotune: GovernorConfig.Clock is required")
	}
	if cfg.High <= 0 {
		cfg.High = 0.35
	}
	if cfg.Low <= 0 {
		cfg.Low = cfg.High / 3
	}
	if cfg.Low >= cfg.High {
		return nil, fmt.Errorf("autotune: governor Low %.2f must be below High %.2f", cfg.Low, cfg.High)
	}
	if cfg.DegradeAt > 0 && cfg.DegradeAt < cfg.High {
		return nil, fmt.Errorf("autotune: governor DegradeAt %.2f must be at or above High %.2f", cfg.DegradeAt, cfg.High)
	}
	if cfg.Interval == 0 {
		cfg.Interval = cfg.Pool.ThrashWindow() / 8
		if cfg.Interval == 0 {
			cfg.Interval = 1
		}
	}
	if cfg.Hold <= 0 {
		cfg.Hold = 3
	}
	if cfg.ThrottleHighWater <= 0 || cfg.ThrottleHighWater >= 1 {
		cfg.ThrottleHighWater = 0.75
	}
	if cfg.ratio == nil {
		cfg.ratio = cfg.Pool.ThrashRatio
	}
	return &Governor{cfg: cfg}, nil
}

// State reports the current control state.
func (g *Governor) State() GovernorState {
	return GovernorState(g.state.Load())
}

// Transitions reports how many state changes the governor has made.
func (g *Governor) Transitions() uint64 { return g.transitions.Load() }

// Tick runs at most one control decision, rate-limited to the configured
// interval on the simulated clock. Call it from the access loop; between
// decisions it is a single atomic load plus a mutex-guarded compare.
func (g *Governor) Tick() {
	now := g.cfg.Clock.Cycles()
	g.mu.Lock()
	defer g.mu.Unlock()
	if now-g.lastTick < g.cfg.Interval {
		return
	}
	g.lastTick = now
	ratio := g.cfg.ratio()
	switch g.State() {
	case GovNormal:
		if ratio >= g.cfg.High {
			g.enterThrottled()
		}
	case GovThrottled:
		switch {
		case g.cfg.DegradeAt > 0 && ratio >= g.cfg.DegradeAt:
			g.enterDegraded()
		case ratio <= g.cfg.Low:
			g.calm++
			if g.calm >= g.cfg.Hold {
				g.exitThrottled()
			}
		default:
			g.calm = 0
		}
	case GovDegraded:
		if ratio <= g.cfg.Low {
			g.calm++
			if g.calm >= g.cfg.Hold {
				g.exitDegraded()
			}
		} else {
			g.calm = 0
		}
	}
}

// enterThrottled quiets speculation and tightens eviction: stride
// prefetch pauses, prefetch admission gates at ThrottleHighWater,
// eviction switches to pressure mode, and the compressed tier — the
// most expendable consumer of local bytes — is halved before anything
// else gives ground. The pool's own settings are saved for recovery.
// Caller holds g.mu.
func (g *Governor) enterThrottled() {
	p := g.cfg.Pool
	g.savedDepth = p.PrefetchDepth()
	g.savedHW = p.PrefetchHighWater()
	p.SetPrefetchDepth(0)
	p.SetPrefetchHighWater(g.cfg.ThrottleHighWater)
	p.SetPressureEvict(true)
	if tier := p.Far().Tier(); tier != nil {
		g.savedTier = tier.Budget()
		tier.Resize(g.savedTier / 2)
	}
	g.calm = 0
	g.setState(GovThrottled)
	g.throttles.Add(1)
}

// exitThrottled restores the saved prefetch depth, admission gate, and
// compressed-tier budget, and leaves pressure mode. Caller holds g.mu.
func (g *Governor) exitThrottled() {
	p := g.cfg.Pool
	p.SetPrefetchDepth(g.savedDepth)
	p.SetPrefetchHighWater(g.savedHW)
	p.SetPressureEvict(false)
	if tier := p.Far().Tier(); tier != nil && g.savedTier > 0 {
		tier.Resize(g.savedTier)
	}
	g.calm = 0
	g.setState(GovNormal)
}

// enterDegraded trips the pool into fail-fast degraded mode on top of
// the throttled knobs and squeezes the compressed tier to a quarter of
// its configured budget. The tier is deliberately not zeroed: degraded
// pools shed fabric fetches, so tier hits are the only remote data still
// being served. Caller holds g.mu.
func (g *Governor) enterDegraded() {
	p := g.cfg.Pool
	p.Far().ForceDegrade(true)
	if tier := p.Far().Tier(); tier != nil && g.savedTier > 0 {
		tier.Resize(g.savedTier / 4)
	}
	g.calm = 0
	g.setState(GovDegraded)
	g.degrades.Add(1)
}

// exitDegraded lifts the forced degradation, stepping back to Throttled
// (recovery retraces the escalation ladder one state at a time), and
// re-expands the tier to the throttled half-budget. Caller holds g.mu.
func (g *Governor) exitDegraded() {
	p := g.cfg.Pool
	p.Far().ForceDegrade(false)
	if tier := p.Far().Tier(); tier != nil && g.savedTier > 0 {
		tier.Resize(g.savedTier / 2)
	}
	g.calm = 0
	g.setState(GovThrottled)
}

func (g *Governor) setState(s GovernorState) {
	g.state.Store(int32(s))
	g.transitions.Add(1)
}

// RegisterObs exposes the governor on reg: the numeric control state
// (0 normal, 1 throttled, 2 degraded) and transition counters.
func (g *Governor) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("trackfm_governor_state",
		"Anti-thrash governor state: 0 normal, 1 throttled, 2 degraded.",
		func() float64 { return float64(g.state.Load()) }, labels...)
	reg.CounterFunc("trackfm_governor_transitions_total",
		"Anti-thrash governor state changes.",
		func() uint64 { return g.transitions.Load() }, labels...)
	reg.CounterFunc("trackfm_governor_throttles_total",
		"Times the governor entered the throttled state.",
		func() uint64 { return g.throttles.Load() }, labels...)
	reg.CounterFunc("trackfm_governor_degrades_total",
		"Times the governor forced the pool into degraded mode.",
		func() uint64 { return g.degrades.Load() }, labels...)
}
