package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// AdmissionConfig parameterizes server-side admission control.
type AdmissionConfig struct {
	// MaxQueue bounds the number of requests admitted but not yet
	// finished (queued + in service). An arrival beyond it is shed
	// immediately — the server never queues unboundedly. Zero selects 256.
	MaxQueue int

	// Target is the CoDel-style queue-delay target in clock units
	// (simulated cycles when Clock is set, wall nanoseconds otherwise):
	// while the estimated queue delay has stayed above Target for longer
	// than Interval, arrivals are shed until the queue drains back under
	// it. Zero selects 5ms-equivalent.
	Target uint64

	// Interval is how long the queue delay must stay above Target before
	// shedding begins, in the same units as Target. Zero selects
	// 100ms-equivalent.
	Interval uint64

	// Clock, when set, drives admission timing off the deterministic
	// simulated clock (the overload soak replays bit-identically). When
	// nil, wall-clock time is used — the real fmserver path.
	Clock *sim.Clock
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.Target == 0 {
		c.Target = clockUnits(c.Clock, 5*sim.Frequency/1000, 5*time.Millisecond)
	}
	if c.Interval == 0 {
		c.Interval = clockUnits(c.Clock, 100*sim.Frequency/1000, 100*time.Millisecond)
	}
	return c
}

// Verdict is an admission decision.
type Verdict int

const (
	// Admit accepts the request for service.
	Admit Verdict = iota
	// ShedQueueFull rejects: the bounded queue is at capacity.
	ShedQueueFull
	// ShedDeadline rejects: the request cannot finish inside its carried
	// deadline (estimated queue delay + service time exceeds the budget),
	// so serving it would burn capacity on an answer the client must
	// discard.
	ShedDeadline
	// ShedCoDel rejects: the queue delay has been above target for a full
	// interval — the queue is standing, not a burst — and arrivals are
	// shed until it drains.
	ShedCoDel
)

// Shed reports whether the verdict is any of the reject classes.
func (v Verdict) Shed() bool { return v != Admit }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case ShedQueueFull:
		return "shed-queue-full"
	case ShedDeadline:
		return "shed-deadline"
	case ShedCoDel:
		return "shed-codel"
	default:
		return "unknown"
	}
}

// Admission is a CoDel-flavoured admission controller for a far-memory
// server: a bounded request queue, a measured (EWMA) service time, a
// deadline-feasibility check against the budget each request carries,
// and sustained-queue-delay shedding. It is deliberately clock-dual so
// the same controller runs inside the real fmserver (wall time) and the
// deterministic overload soak (sim.Clock).
//
// Admission is safe for concurrent use.
type Admission struct {
	cfg AdmissionConfig

	inflight atomic.Int64

	mu         sync.Mutex
	ewma       uint64 // EWMA of measured service time, clock units; 0 = no sample yet
	above      bool   // queue delay is currently above Target
	aboveSince uint64 // clock reading when the current excursion above Target began

	stats AdmissionStats
}

// NewAdmission builds a controller; zero config fields take defaults.
func NewAdmission(cfg AdmissionConfig) *Admission {
	a := &Admission{cfg: cfg.withDefaults()}
	a.stats.queueDelay = obs.NewHistogram(nil)
	return a
}

// Stats exposes the controller's counters and queue-delay histogram.
func (a *Admission) Stats() *AdmissionStats { return &a.stats }

// Inflight reports requests admitted but not yet finished.
func (a *Admission) Inflight() int { return int(a.inflight.Load()) }

// ServiceEstimate reports the EWMA service time in clock units (0 before
// the first sample).
func (a *Admission) ServiceEstimate() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ewma
}

// OfferEstimate is Offer with the queue delay estimated from the live
// queue: inflight requests times the EWMA service time. This is the TCP
// server's arrival path, where the true head-of-line delay is not
// directly observable.
func (a *Admission) OfferEstimate(budget uint64) Verdict {
	return a.offer(0, budget, true)
}

// Offer decides one arrival. queueDelay is the caller's estimate of how
// long the request will wait before service begins (the discrete-event
// soak knows it exactly; the TCP server estimates it via OfferEstimate);
// budget is the request's remaining deadline in the same clock units, 0
// for no deadline. On Admit the caller must pair with Done.
func (a *Admission) Offer(queueDelay, budget uint64) Verdict {
	return a.offer(queueDelay, budget, false)
}

// offer is Offer, with queueDelay replaced by inflight × EWMA when
// estimate is set; either way the EWMA is read in the one lock hold that
// tracks the excursion above Target.
func (a *Admission) offer(queueDelay, budget uint64, estimate bool) Verdict {
	q := a.inflight.Load()
	if q >= int64(a.cfg.MaxQueue) {
		a.stats.shedQueueFull.Add(1)
		return ShedQueueFull
	}
	a.mu.Lock()
	ewma := a.ewma
	if estimate {
		queueDelay = uint64(q) * ewma
	}
	var codel bool
	if queueDelay > a.cfg.Target {
		now := clockNow(a.cfg.Clock)
		if !a.above {
			a.above, a.aboveSince = true, now
		} else if now-a.aboveSince >= a.cfg.Interval {
			codel = true
		}
	} else {
		a.above = false
	}
	a.mu.Unlock()
	if budget > 0 && queueDelay+ewma > budget {
		a.stats.shedDeadline.Add(1)
		return ShedDeadline
	}
	if codel {
		a.stats.shedCoDel.Add(1)
		return ShedCoDel
	}
	a.inflight.Add(1)
	a.stats.admitted.Add(1)
	a.stats.queueDelay.Observe(queueDelay)
	return Admit
}

// Done records a completed request and its measured service time,
// updating the EWMA estimate (gain 1/8, the TCP RTT estimator's classic
// smoothing).
func (a *Admission) Done(service uint64) {
	a.inflight.Add(-1)
	a.mu.Lock()
	if a.ewma == 0 {
		a.ewma = service
	} else {
		a.ewma = a.ewma - a.ewma/8 + service/8
	}
	a.mu.Unlock()
}

// AdmissionStats counts admission outcomes; counters are atomic and the
// queue-delay histogram is concurrency-safe.
type AdmissionStats struct {
	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedDeadline  atomic.Uint64
	shedCoDel     atomic.Uint64

	queueDelay *obs.Histogram // delay estimate of every admitted request
}

// Admitted reports requests accepted for service.
func (s *AdmissionStats) Admitted() uint64 { return s.admitted.Load() }

// ShedQueueFull reports arrivals rejected because the bounded queue was
// at capacity.
func (s *AdmissionStats) ShedQueueFull() uint64 { return s.shedQueueFull.Load() }

// ShedDeadline reports arrivals rejected as infeasible within their
// carried deadline.
func (s *AdmissionStats) ShedDeadline() uint64 { return s.shedDeadline.Load() }

// ShedCoDel reports arrivals rejected by sustained-queue-delay shedding.
func (s *AdmissionStats) ShedCoDel() uint64 { return s.shedCoDel.Load() }

// Shed reports the total rejected arrivals across all classes.
func (s *AdmissionStats) Shed() uint64 {
	return s.ShedQueueFull() + s.ShedDeadline() + s.ShedCoDel()
}

// QueueDelay exposes the queue-delay histogram of admitted requests
// (clock units), from which p50/p99 quantiles are derived.
func (s *AdmissionStats) QueueDelay() obs.HistogramSnapshot { return s.queueDelay.Snapshot() }

// String implements fmt.Stringer.
func (s *AdmissionStats) String() string {
	return fmt.Sprintf("admitted=%d shedQueueFull=%d shedDeadline=%d shedCoDel=%d",
		s.Admitted(), s.ShedQueueFull(), s.ShedDeadline(), s.ShedCoDel())
}

// Register exposes the admission counters and queue-delay quantiles on reg.
func (s *AdmissionStats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("trackfm_admission_admitted_total",
		"Requests accepted for service by admission control.", s.Admitted, labels...)
	reg.CounterFunc("trackfm_admission_shed_queue_full_total",
		"Arrivals rejected because the bounded request queue was full.", s.ShedQueueFull, labels...)
	reg.CounterFunc("trackfm_admission_shed_deadline_total",
		"Arrivals rejected as infeasible within their carried deadline.", s.ShedDeadline, labels...)
	reg.CounterFunc("trackfm_admission_shed_codel_total",
		"Arrivals rejected by sustained queue-delay (CoDel) shedding.", s.ShedCoDel, labels...)
	reg.MustHistogram("trackfm_admission_queue_delay",
		"Estimated queue delay of admitted requests, in clock units.", s.queueDelay, labels...)
}
