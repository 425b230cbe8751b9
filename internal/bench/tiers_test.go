package bench

import "testing"

// The headline acceptance gate for the multi-tier sweep, at a small fixed
// scale: with the working set at 2x the local budget and a warm tier
// sized to the local budget, throughput must be at least 2x the
// tier-disabled baseline (ISSUE 10's overcommit gate), with no corrupt
// reads anywhere and the tier demonstrably absorbing the spill set.
func TestTiersOvercommitAcceptance(t *testing.T) {
	const n = 8000
	off := runTiersPhase(tiersPhase{budgetFrac: 0, skew: 1.1}, n)
	on := runTiersPhase(tiersPhase{budgetFrac: 1, skew: 1.1}, n)

	if off.corrupt != 0 || on.corrupt != 0 {
		t.Fatalf("corrupt reads: off %d, tiered %d", off.corrupt, on.corrupt)
	}
	if on.opsPerSec < 2*off.opsPerSec {
		t.Fatalf("warm 1x tier throughput %.0f ops/s < 2x tierless baseline %.0f",
			on.opsPerSec, off.opsPerSec)
	}
	if on.tierRate <= 0 {
		t.Fatalf("tiered run recorded no tier hits; the sweep is not measuring the tier")
	}
	if off.tierRate != 0 {
		t.Fatalf("tier-disabled run recorded tier traffic (rate %.3f)", off.tierRate)
	}
	if on.ratio < 1.5 {
		t.Fatalf("compression ratio %.2f below the half-compressible payload's expected ~1.9", on.ratio)
	}
	// Write-through invariant at the bench level: the tier must not
	// change what the reads observe (corrupt = 0 above) nor push the p99
	// above the tierless run, whose tail is a fabric round trip.
	if on.p99 > off.p99 {
		t.Fatalf("tiered p99 %.0f cycles above tierless p99 %.0f", on.p99, off.p99)
	}
}
