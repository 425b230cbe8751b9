package bench

import (
	"testing"

	"trackfm/internal/sim"
)

// The acceptance gates for the overload soak, run at the same scale as the
// checked-in BENCH_overload.json: under 4x offered load with a 5ms per-op
// deadline the server sheds instead of queueing unboundedly, the admitted
// ops keep their tail latency within 2x of the uncontended tail, goodput
// stays above 60% of capacity, and no op ever completes late without being
// reported as a deadline miss.
func TestOverloadSoakAcceptance(t *testing.T) {
	env := sim.NewEnv()
	svc := env.Costs.RemoteObjectFetch(4096)
	capacity := sim.Frequency / float64(svc)
	budget := uint64(5 * sim.Frequency / 1000)
	const n = 8000

	base := overloadPhase{budget: budget, maxQueue: 2}
	calm := base
	calm.mult = 1.0
	hot := base
	hot.mult = 4.0

	uncontended := runOverloadPhase(calm, n, svc)
	over := runOverloadPhase(hot, n, svc)

	if over.shed() == 0 {
		t.Fatalf("4x load shed nothing: the bounded queue is not bounding")
	}
	if got := over.offered; got != over.admitted+over.coalesced+over.shed() {
		t.Fatalf("accounting leak: offered %d != admitted %d + coalesced %d + shed %d",
			got, over.admitted, over.coalesced, over.shed())
	}
	if over.late != 0 {
		t.Fatalf("%d admitted ops completed past deadline: with queue bound 2 every admitted op must fit the 5ms budget", over.late)
	}
	if uncontended.late != 0 {
		t.Fatalf("%d late ops at 1x load", uncontended.late)
	}
	if over.p99 > 2*uncontended.p99 {
		t.Fatalf("4x p99 = %.0f cycles > 2x uncontended p99 %.0f", over.p99, uncontended.p99)
	}
	if min := 0.60 * capacity; over.goodput < min {
		t.Fatalf("4x goodput = %.0f ops/s < 60%% of capacity (%.0f)", over.goodput, min)
	}
}

// The shed-class contrast phases: a deadline so tight the queue can never
// satisfy it sheds on feasibility, and a deep CoDel-managed queue sheds on
// sustained queue delay.
func TestOverloadShedClasses(t *testing.T) {
	env := sim.NewEnv()
	svc := env.Costs.RemoteObjectFetch(4096)
	const n = 8000

	tight := runOverloadPhase(overloadPhase{mult: 4.0, budget: 2 * svc, maxQueue: 64}, n, svc)
	if tight.shedDL == 0 {
		t.Fatalf("tight-deadline phase recorded no shed-deadline verdicts")
	}
	codel := runOverloadPhase(overloadPhase{
		mult: 4.0, budget: uint64(5 * sim.Frequency / 1000), maxQueue: 256,
		target: svc / 4, interval: 10 * svc,
	}, n, svc)
	if codel.shedCD == 0 {
		t.Fatalf("codel phase recorded no shed-codel verdicts")
	}
}

// The retry-amplification gate: during a 30% brownout the budgeted client
// sends at most 1.15x one wire request per completed op, while the
// unbudgeted baseline demonstrably amplifies past that bound.
func TestOverloadBrownoutAmplification(t *testing.T) {
	const n = 8000
	ops, sends := runBrownout(n, true)
	if ops != n {
		t.Fatalf("budgeted brownout completed %d/%d ops", ops, n)
	}
	if limit := 1.15 * float64(ops); float64(sends) > limit {
		t.Fatalf("budgeted brownout sent %d for %d ops (%.2fx), want <= 1.15x", sends, ops, float64(sends)/float64(ops))
	}
	ops, sends = runBrownout(n, false)
	if float64(sends) <= 1.15*float64(ops) {
		t.Fatalf("unbudgeted brownout sent only %.2fx: the baseline no longer amplifies, gate is vacuous", float64(sends)/float64(ops))
	}
}

// The soak is a DES on the simulated clock: two runs must agree bit for bit.
func TestOverloadTableDeterministic(t *testing.T) {
	a := overloadTable(Scale{Factor: 1}).JSON()
	b := overloadTable(Scale{Factor: 1}).JSON()
	if a != b {
		t.Fatalf("overload table is not deterministic across runs")
	}
}
