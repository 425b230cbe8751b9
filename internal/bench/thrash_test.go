package bench

import "testing"

// The headline acceptance gates for the memory-pressure soak, run at a
// small fixed scale: at 2x overcommit the governed pool must beat the
// ungoverned one by at least 3x throughput (ISSUE 8's anti-thrash gate),
// with the governor demonstrably engaged (throttled or recovering, and
// prefetch admission actually skipping under pressure).
func TestThrashSoakAcceptance(t *testing.T) {
	const n = 8000
	plain := runThrashPhase(thrashPhase{mult: 2.0}, n)
	gov := runThrashPhase(thrashPhase{mult: 2.0, governed: true}, n)

	if plain.lost != 0 || gov.lost != 0 {
		t.Fatalf("lost localizations: plain %d, governed %d", plain.lost, gov.lost)
	}
	if plain.corrupt != 0 || gov.corrupt != 0 {
		t.Fatalf("corrupt reads: plain %d, governed %d", plain.corrupt, gov.corrupt)
	}
	if gov.opsPerSec < 3*plain.opsPerSec {
		t.Fatalf("governed 2x throughput %.0f < 3x ungoverned %.0f",
			gov.opsPerSec, plain.opsPerSec)
	}
	if !gov.throttled {
		t.Fatalf("governor not throttled at the end of 2x overcommit")
	}
	if gov.pfSkipped == 0 {
		t.Fatalf("governed run skipped no prefetches: admission gate never engaged")
	}
	if plain.ratio < 0.3 {
		t.Fatalf("ungoverned 2x thrash ratio = %.3f, want a clear thrash signal", plain.ratio)
	}
}

// The governor must never hurt: across the working-set sweep, throttling
// is either a win (pollution was the bottleneck) or a no-op, never a
// regression beyond noise. The pool-level calm case (ratio 0, governor
// stays normal) is covered by the aifm package's model; this soak's chase
// strand is deliberately polluting at every multiplier.
func TestThrashSoakGovernorNeverHurts(t *testing.T) {
	const n = 8000
	for _, mult := range []float64{0.5, 1.0, 4.0} {
		plain := runThrashPhase(thrashPhase{mult: mult}, n)
		gov := runThrashPhase(thrashPhase{mult: mult, governed: true}, n)
		if gov.opsPerSec < 0.9*plain.opsPerSec {
			t.Fatalf("%gx: governed %.0f ops/s < 90%% of ungoverned %.0f",
				mult, gov.opsPerSec, plain.opsPerSec)
		}
		if gov.lost != 0 || gov.corrupt != 0 {
			t.Fatalf("%gx: governed lost %d / corrupt %d", mult, gov.lost, gov.corrupt)
		}
	}
}

// The elastic-budget gate: squeezing the budget to 50% mid-run and
// restoring it must complete both resizes with zero deadlocked or failed
// localizations and zero data loss, governed or not.
func TestThrashSoakShrinkSurvives(t *testing.T) {
	const n = 8000
	for _, governed := range []bool{false, true} {
		r := runThrashPhase(thrashPhase{mult: 2.0, governed: governed, shrink: true}, n)
		if r.resizes != 2 {
			t.Fatalf("governed=%v: resizes = %d, want 2 (shrink + grow)", governed, r.resizes)
		}
		if r.lost != 0 {
			t.Fatalf("governed=%v: %d localizations lost across the squeeze", governed, r.lost)
		}
		if r.corrupt != 0 {
			t.Fatalf("governed=%v: %d corrupt reads across the squeeze", governed, r.corrupt)
		}
		if r.ops != n {
			t.Fatalf("governed=%v: completed %d/%d ops", governed, r.ops, n)
		}
	}
}

// The soak runs entirely on the simulated clock: two runs must agree bit
// for bit.
func TestThrashTableDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep in -short mode")
	}
	s := Scale{Factor: 0.2}
	a := thrashTable(s).JSON()
	b := thrashTable(s).JSON()
	if a != b {
		t.Fatalf("thrash table is not deterministic across runs")
	}
}
