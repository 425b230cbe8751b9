package fabric

import (
	"fmt"
	"time"

	"trackfm/internal/sim"
)

// Deadline is an absolute per-operation deadline. Like admission control's
// timing it is clock-dual: when built over a sim.Clock it is a
// cycle count on the deterministic timeline (experiments replay
// bit-identically); when built over the wall clock it is a UnixNano
// instant. The zero Deadline means "no deadline" and is accepted
// everywhere a Deadline is.
//
// Deadlines propagate end to end: the runtime (aifm.Pool, fastswap.Swap)
// stamps one per remote operation, the TCPTransport bounds each
// attempt's socket deadline and backoff by it and carries the remaining
// budget to the server in the request header, and the server's admission
// control sheds requests it cannot finish in time.
type Deadline struct {
	at  uint64     // absolute expiry in clock units; meaningless when !set
	clk *sim.Clock // nil = wall clock (at is UnixNano)
	set bool
}

// DeadlineAfter returns a deadline budget clock-units from now: simulated
// cycles when clk is non-nil, nanoseconds of wall time otherwise.
func DeadlineAfter(clk *sim.Clock, budget uint64) Deadline {
	return Deadline{at: clockNow(clk) + budget, clk: clk, set: true}
}

// WallDeadlineAfter returns a wall-clock deadline budget from now.
func WallDeadlineAfter(budget time.Duration) Deadline {
	return DeadlineAfter(nil, uint64(budget.Nanoseconds()))
}

// IsZero reports whether d is the no-deadline zero value.
func (d Deadline) IsZero() bool { return !d.set }

// clockNow reads a clock-dual timeline — a Deadline's or the admission
// controller's: simulated cycles when clk is
// set, wall-clock nanoseconds otherwise.
func clockNow(clk *sim.Clock) uint64 {
	if clk != nil {
		return clk.Cycles()
	}
	return uint64(time.Now().UnixNano())
}

// clockUnits picks the form of a default that is stated on both
// timelines: cycles when clk is set, wall's nanoseconds otherwise.
func clockUnits(clk *sim.Clock, cycles uint64, wall time.Duration) uint64 {
	if clk != nil {
		return cycles
	}
	return uint64(wall)
}

// Expired reports whether the deadline has passed. A zero Deadline never
// expires.
func (d Deadline) Expired() bool {
	return d.set && clockNow(d.clk) >= d.at
}

// Remaining reports the budget left in the deadline's own clock units
// (cycles or nanoseconds), or 0 when expired. A zero Deadline reports 0;
// check IsZero first.
func (d Deadline) Remaining() uint64 {
	if !d.set {
		return 0
	}
	now := clockNow(d.clk)
	if now >= d.at {
		return 0
	}
	return d.at - now
}

// RemainingNanos reports the budget left in nanoseconds regardless of the
// underlying clock (cycles are converted at the simulated frequency).
// This is the unit the wire header and net.Conn socket deadlines use.
// Returns 0 when expired or when the Deadline is zero.
func (d Deadline) RemainingNanos() uint64 {
	rem := d.Remaining()
	if rem == 0 {
		return 0
	}
	if d.clk != nil {
		return uint64(float64(rem) / sim.Frequency * 1e9)
	}
	return rem
}

// errDeadline wraps ErrDeadlineExceeded with a phase tag for diagnostics.
func errDeadline(phase string) error {
	return fmt.Errorf("%w: %s", ErrDeadlineExceeded, phase)
}
