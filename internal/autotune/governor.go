// governor.go implements the anti-thrash governor: the runtime-tuning
// counterpart to this package's compile-time object-size search. Where
// the tuner picks a configuration once, the governor is a control loop on
// the simulated clock that watches the pool's EWMA thrash ratio and steps
// between two states:
//
//	Normal    — full prefetch depth, normal eviction.
//	Throttled — the pool throttled (aifm.Pool.Throttle: stride prefetch
//	            paused, prefetch admission gated at a tight high-water
//	            mark, prefetched-but-unused residents evicted first),
//	            the compressed tier halved.
//
// Escalation is immediate (one hot reading steps up); recovery is
// hysteretic (govHold consecutive calm readings step down), so the
// governor does not flap across the threshold while the ratio decays.
// The thresholds are constants: every run of -exp thrash has used these
// values, and BENCH_thrash.json is what they were judged by.
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
)

const (
	// govHigh is the thrash ratio at or above which the governor
	// throttles; a reading at or below govLow counts as calm.
	govHigh = 0.35
	govLow  = govHigh / 3
	// govHold is how many consecutive calm readings precede recovery.
	govHold = 3
)

func (s GovernorState) String() string {
	switch s {
	case GovNormal:
		return "normal"
	case GovThrottled:
		return "throttled"
	default:
		return fmt.Sprintf("GovernorState(%d)", int32(s))
	}
}

// GovernorConfig parameterizes an anti-thrash governor.
type GovernorConfig struct {
	// Pool is the pool under control. Required.
	Pool *aifm.Pool
	// Clock paces Tick decisions, at most one per eighth of the pool's
	// thrash window, so several EWMA samples land between readings.
	// Required.
	Clock *sim.Clock

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
	cfg      GovernorConfig
	interval uint64 // minimum simulated cycles between decisions
	state    atomic.Int32

	mu          sync.Mutex // serializes decisions and knob flips
	lastTick    uint64
	calm        int
	savedTier   uint64
	transitions atomic.Uint64
	throttles   atomic.Uint64
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
	interval := cfg.Pool.ThrashWindow() / 8
	if interval == 0 {
		interval = 1
	}
	if cfg.ratio == nil {
		cfg.ratio = cfg.Pool.ThrashRatio
	}
	return &Governor{cfg: cfg, interval: interval}, nil
}

// State reports the current control state.
func (g *Governor) State() GovernorState {
	return GovernorState(g.state.Load())
}

// Transitions reports how many state changes the governor has made.
func (g *Governor) Transitions() uint64 { return g.transitions.Load() }

// Tick runs at most one control decision, rate-limited to the governor's
// interval on the simulated clock. Call it from the access loop; between
// decisions it is a single atomic load plus a mutex-guarded compare.
func (g *Governor) Tick() {
	now := g.cfg.Clock.Cycles()
	g.mu.Lock()
	defer g.mu.Unlock()
	if now-g.lastTick < g.interval {
		return
	}
	g.lastTick = now
	ratio := g.cfg.ratio()
	switch g.State() {
	case GovNormal:
		if ratio >= govHigh {
			g.enterThrottled()
		}
	case GovThrottled:
		if ratio <= govLow {
			g.calm++
			if g.calm >= govHold {
				g.exitThrottled()
			}
		} else {
			g.calm = 0
		}
	}
}

// enterThrottled throttles the pool (see aifm.Pool.Throttle: stride
// prefetch pauses, prefetch admission gates, eviction reclaims
// speculation first) and halves the compressed tier — the most
// expendable consumer of local bytes — before anything else gives
// ground. Its budget is saved for recovery. Caller holds g.mu.
func (g *Governor) enterThrottled() {
	p := g.cfg.Pool
	p.Throttle(true)
	if tier := p.Far().Tier(); tier != nil {
		g.savedTier = tier.Budget()
		tier.Resize(g.savedTier / 2)
	}
	g.calm = 0
	g.setState(GovThrottled)
	g.throttles.Add(1)
}

// exitThrottled lifts the pool's throttle and restores the compressed
// tier's budget. Caller holds g.mu.
func (g *Governor) exitThrottled() {
	p := g.cfg.Pool
	p.Throttle(false)
	if tier := p.Far().Tier(); tier != nil && g.savedTier > 0 {
		tier.Resize(g.savedTier)
	}
	g.calm = 0
	g.setState(GovNormal)
}

func (g *Governor) setState(s GovernorState) {
	g.state.Store(int32(s))
	g.transitions.Add(1)
}

// RegisterObs exposes the governor on reg: the numeric control state
// (0 normal, 1 throttled) and transition counters.
func (g *Governor) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("trackfm_governor_state",
		"Anti-thrash governor state: 0 normal, 1 throttled.",
		func() float64 { return float64(g.state.Load()) }, labels...)
	reg.CounterFunc("trackfm_governor_transitions_total",
		"Anti-thrash governor state changes.",
		func() uint64 { return g.transitions.Load() }, labels...)
	reg.CounterFunc("trackfm_governor_throttles_total",
		"Times the governor entered the throttled state.",
		func() uint64 { return g.throttles.Load() }, labels...)
}
