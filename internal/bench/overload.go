package bench

import (
	"fmt"

	"trackfm/internal/fabric"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/dist"
)

// This file regenerates the overload soak (extension): a deterministic
// discrete-event simulation of a far-memory server under open-loop
// zipfian load from 0.5x to 10x its service capacity, driving the real
// fabric.Admission controller on a sim.Clock. It answers the robustness
// questions the paper's steady-state figures do not: when offered load
// exceeds capacity, does the server shed instead of queueing unboundedly,
// what latency do the admitted requests see, and how much does the retry
// budget damp retry amplification during a memory-node brownout?
//
// The model is a single-server queue: one remote node serving fixed-size
// (4 KB) object fetches at the calibrated cost S =
// Costs.RemoteObjectFetch(4096) cycles each. Arrivals are open-loop
// (clients do not slow down when the server queues — the regime where
// uncontrolled systems collapse), keys are drawn zipfian, and concurrent
// requests for the same key coalesce into the in-flight fetch exactly
// like the pool's singleflight path. Everything runs on simulated cycles,
// so the table reproduces bit-identically.

// overloadKeyspace and overloadSkew shape the zipfian key draw; the
// resident-hot-set effect appears as same-key coalescing.
const (
	overloadKeyspace = 1 << 16
	overloadSkew     = 0.99
	overloadSeed     = 42
)

// overloadPhase is one offered-load point.
type overloadPhase struct {
	name     string
	mult     float64 // offered load as a multiple of service capacity
	budget   uint64  // per-op deadline in cycles (0 = none)
	maxQueue int     // admission queue bound
	target   uint64  // CoDel target (0 = default)
	interval uint64  // CoDel interval (0 = default)
}

// overloadResult is the measured outcome of one phase.
type overloadResult struct {
	offered   uint64
	admitted  uint64
	coalesced uint64
	shedQF    uint64
	shedDL    uint64
	shedCD    uint64
	late      uint64 // admitted ops that finished past their budget
	goodput   float64
	p50, p99  float64 // admitted-op latency, cycles
}

func (r overloadResult) shed() uint64 { return r.shedQF + r.shedDL + r.shedCD }

// runOverloadPhase replays n open-loop arrivals through the admission
// controller over a single-server queue with service time svc.
func runOverloadPhase(ph overloadPhase, n int, svc uint64) overloadResult {
	var clk sim.Clock
	adm := fabric.NewAdmission(fabric.AdmissionConfig{
		MaxQueue: ph.maxQueue,
		Target:   ph.target,
		Interval: ph.interval,
		Clock:    &clk,
	})
	zipf, err := dist.NewZipf(overloadKeyspace, overloadSkew, overloadSeed)
	if err != nil {
		panic(fmt.Sprintf("bench: overload zipf: %v", err))
	}
	lat := obs.NewHistogram(nil)
	inter := float64(svc) / ph.mult

	var res overloadResult
	var busyUntil uint64
	var good uint64
	var lastFinish uint64
	pending := make([]uint64, 0, ph.maxQueue+1) // finish times, FIFO
	outstanding := make(map[uint64]uint64)      // key -> finish time of its in-flight fetch

	for k := 0; k < n; k++ {
		arrival := uint64(float64(k) * inter)
		if arrival > clk.Cycles() {
			clk.Advance(arrival - clk.Cycles())
		}
		// Retire every fetch that finished before this arrival.
		for len(pending) > 0 && pending[0] <= arrival {
			adm.Done(svc)
			pending = pending[1:]
		}
		res.offered++
		key := zipf.Next()
		// Singleflight: a request for a key whose fetch is already in
		// flight rides that fetch — no new server work, no admission.
		if finish, ok := outstanding[key]; ok && finish > arrival {
			res.coalesced++
			l := finish - arrival
			lat.Observe(l)
			if ph.budget > 0 && l > ph.budget {
				res.late++
			} else {
				good++
			}
			if finish > lastFinish {
				lastFinish = finish
			}
			continue
		}
		queueDelay := uint64(0)
		if busyUntil > arrival {
			queueDelay = busyUntil - arrival
		}
		switch adm.Offer(queueDelay, ph.budget) {
		case fabric.ShedQueueFull:
			res.shedQF++
			continue
		case fabric.ShedDeadline:
			res.shedDL++
			continue
		case fabric.ShedCoDel:
			res.shedCD++
			continue
		}
		res.admitted++
		start := arrival
		if busyUntil > start {
			start = busyUntil
		}
		finish := start + svc
		busyUntil = finish
		pending = append(pending, finish)
		outstanding[key] = finish
		l := finish - arrival
		lat.Observe(l)
		// An admitted op that finishes past its deadline surfaces to the
		// client as ErrDeadlineExceeded (the late result is discarded);
		// it is never silent, and it does not count toward goodput.
		if ph.budget > 0 && l > ph.budget {
			res.late++
		} else {
			good++
		}
		if finish > lastFinish {
			lastFinish = finish
		}
	}
	if lastFinish > 0 {
		res.goodput = float64(good) * sim.Frequency / float64(lastFinish)
	}
	snap := lat.Snapshot()
	res.p50 = snap.Quantile(0.50)
	res.p99 = snap.Quantile(0.99)
	return res
}

// runBrownout models a memory-node brownout: each op's sends fail with a
// 30% probability and are retried (up to 4 attempts) — gated by the real
// RetryBudget when budgeted, unboundedly otherwise. It reports completed
// ops and total sends, the retry-amplification numerator the acceptance
// gate bounds at 1.15x.
func runBrownout(n int, budgeted bool) (ops, sends uint64) {
	rng := sim.NewRNG(7)
	rb := fabric.NewRetryBudget(16, 0.1)
	const maxAttempts = 4
	for i := 0; i < n; i++ {
		sends++
		for attempt := 1; attempt < maxAttempts && rng.Float64() < 0.30; attempt++ {
			if budgeted && !rb.TryRetry() {
				break
			}
			sends++
		}
		// One deposit per completed operation, as the transport does.
		rb.OnRequest()
		ops++
	}
	return ops, sends
}

// overloadTable runs the overload soak.
func overloadTable(s Scale) *Table {
	env := sim.NewEnv()
	svc := env.Costs.RemoteObjectFetch(4096)
	capacity := sim.Frequency / float64(svc)
	n := int(s.n(8000))
	if n < 1000 {
		n = 1000
	}
	// 5ms of cycles: the per-op deadline the acceptance criteria name.
	budget := uint64(5 * sim.Frequency / 1000)

	// The main ladder bounds the queue at 2 requests (one in service, one
	// waiting): admitted latency is then at most 2 service times — the
	// bounded queue, not heroics, is what keeps tail latency flat while
	// excess arrivals shed. The contrast phases open the queue up to show
	// the deadline-feasibility and CoDel shed classes at work.
	phases := []overloadPhase{
		{name: "0.5x", mult: 0.5, budget: budget, maxQueue: 2},
		{name: "1x", mult: 1.0, budget: budget, maxQueue: 2},
		{name: "2x", mult: 2.0, budget: budget, maxQueue: 2},
		{name: "4x", mult: 4.0, budget: budget, maxQueue: 2},
		{name: "8x", mult: 8.0, budget: budget, maxQueue: 2},
		{name: "10x", mult: 10.0, budget: budget, maxQueue: 2},
		{name: "4x tight-deadline", mult: 4.0, budget: 2 * svc, maxQueue: 64},
		{name: "4x codel", mult: 4.0, budget: budget, maxQueue: 256,
			target: svc / 4, interval: 10 * svc},
	}

	t := &Table{
		ID:    "overload",
		Title: "overload soak: admission control under open-loop load (extension)",
		Columns: []string{"phase", "offered x", "goodput ops/s", "%cap",
			"admitted", "coalesced", "shed qf/dl/cd", "p50 us", "p99 us", "late", "sends/op"},
		Notes: fmt.Sprintf(
			"single-server DES on the calibrated cost model: S=%d cycles per 4KB fetch, capacity %.0f ops/s, %d open-loop zipfian arrivals per phase, 5ms deadline; ladder queue bound 2; brownout: 30%% send failures, <=4 attempts",
			svc, capacity, n),
	}
	us := func(cycles float64) string { return f1(cycles / sim.Frequency * 1e6) }
	for _, ph := range phases {
		r := runOverloadPhase(ph, n, svc)
		t.AddRow(ph.name, f1(ph.mult), f1(r.goodput), f1(100*r.goodput/capacity),
			d(r.admitted), d(r.coalesced),
			fmt.Sprintf("%d/%d/%d", r.shedQF, r.shedDL, r.shedCD),
			us(r.p50), us(r.p99), d(r.late), f2(1.0))
	}
	for _, b := range []struct {
		name     string
		budgeted bool
	}{{"brownout budgeted", true}, {"brownout unbounded", false}} {
		ops, sends := runBrownout(n, b.budgeted)
		t.AddRow(b.name, "-", "-", "-", d(ops), "-", "-", "-", "-", "-",
			f2(float64(sends)/float64(ops)))
	}
	t.Ops = uint64(len(phases)+2) * uint64(n) // n arrivals per ladder phase + 2 brownouts
	return t
}
