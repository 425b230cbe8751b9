package aifm

import (
	"math"
	"testing"

	"trackfm/internal/modeltest"
)

// The governor's tests run directed traces of readings on the pool's model
// (model_test.go): each reading sets the thrash ratio, advances the clock
// past the thrash window and governs once. After every op Check holds the
// pool to refGov, which has the thresholds as its own literals (a reading
// of 0.35 throttles, three in a row at or below 0.35/3 recover, anything
// between resets the calm streak), and to what a throttle does: prefetch
// depth 0, the tier at half its budget, restored on recovery, and one
// throttle counted per throttle.
func readings(ratios ...float64) []modeltest.Op {
	var ops []modeltest.Op
	for _, r := range ratios {
		ops = append(ops, op("ratio", 0, math.Float64bits(r)), op("idle", 0, 0), op("govern", 0, 0))
	}
	return ops
}

// Calm readings keep the pool normal, one hot reading throttles it,
// recovery takes three calm readings in a row, and a reading between the
// thresholds resets the streak.
func TestGovernorThrottleAndRecover(t *testing.T) {
	poolCase(t, "tier-off", readings(0, 0.5, 0.05, 0.05, 0.2, 0.05, 0.05, 0.05), "governor throttled", "governor recovered")
}

// Throttling halves the compressed tier, a second hot reading squeezes it
// no further, and recovery restores it in full.
func TestGovernorShrinksTierFirst(t *testing.T) {
	poolCase(t, "tier-small", readings(0.9, 0.9, 0.05, 0.05, 0.05), "governor throttled", "governor recovered")
}

// The thresholds every -exp thrash run has used, on both sides: 0.34 stays
// normal and 0.35 throttles; two calm readings at 0.35/3 do not recover and
// three do, nor do three just above it.
func TestGovernorThresholds(t *testing.T) {
	run := func(name string, ratios []float64, states ...string) {
		t.Run(name, func(t *testing.T) { poolCase(t, "tier-off", readings(ratios...), states...) })
	}
	run("0.34 stays normal", []float64{0.34})
	run("0.35 throttles and two calm readings keep it", []float64{0.35, 0.35 / 3, 0.35 / 3}, "governor throttled")
	run("three calm readings recover", []float64{0.35, 0.35 / 3, 0.35 / 3, 0.35 / 3}, "governor throttled", "governor recovered")
	run("three readings just above calm do not", []float64{0.35, 0.12, 0.12, 0.12}, "governor throttled")
}

// TestGovernorTickRateLimited: Govern decides at most once per eighth of
// the thrash window, counted from clock zero: a hot reading just inside
// the first interval leaves the pool normal, and one at its end throttles
// it (refGov, which has its own interval, after every op).
func TestGovernorTickRateLimited(t *testing.T) {
	m, err := newModel(poolModel.Rig(t, modelCfg("tier-off").sched), modelCfg("tier-off"))
	if err != nil || m.p.env.Clock.Cycles() != 0 {
		t.Fatalf("clock = %d after NewPool, want 0 (%v)", m.p.env.Clock.Cycles(), err)
	}
	m.p.Close()
	iv := m.p.thrashWindow / 8
	poolCase(t, "tier-off", []modeltest.Op{op("ratio", 0, math.Float64bits(0.9)), op("idle", 0, iv-1), op("govern", 0, 0),
		op("idle", 0, 1), op("govern", 0, 0)}, "governor throttled")
}
