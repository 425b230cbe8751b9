package fabric

import (
	"fmt"
	"sync/atomic"
)

// BreakerState is a replica's position in the circuit-breaker state
// machine: Closed (healthy, serving), Open (failed, quarantined until a
// timeout expires), HalfOpen (timeout expired, one probe in flight to
// decide between Closed and Open).
type BreakerState int

const (
	// BreakerClosed means the replica is healthy and in the read set.
	BreakerClosed BreakerState = iota
	// BreakerOpen means the replica crossed the consecutive-failure
	// threshold and is quarantined: no reads or writes are sent to it
	// until the open timeout expires.
	BreakerOpen
	// BreakerHalfOpen means the open timeout expired and the replica is
	// being probed (resync + liveness). It rejoins the read set only if
	// the probe — including replay of every write it missed — succeeds.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is the per-replica health record. All fields are guarded by the
// owning ReplicaSet's mutex.
type breaker struct {
	state       BreakerState
	consecFails int
	// deadline is the clock reading (sim cycles or wall ns, per the
	// ReplicaSet's clock source) at which an Open breaker transitions to
	// HalfOpen, or at which a Closed breaker with missed writes is next
	// allowed a background resync attempt.
	deadline uint64
	// probing is set while one caller runs this replica's half-open probe
	// (or background resync) with the set's mutex released. Concurrent
	// callers that find it set skip the work instead of queueing behind
	// the probe I/O: exactly one probe is in flight per replica, and the
	// losers fail over fast.
	probing bool
}

// ReplicaHealth is a point-in-time view of one replica's breaker, for
// stats reporters.
type ReplicaHealth struct {
	State       BreakerState
	ConsecFails int
	MissedKeys  int // writes not yet replayed to this replica
}

// String implements fmt.Stringer.
func (h ReplicaHealth) String() string {
	if h.MissedKeys == 0 && h.ConsecFails == 0 {
		return h.State.String()
	}
	return fmt.Sprintf("%s(fails=%d,missed=%d)", h.State, h.ConsecFails, h.MissedKeys)
}

// ReplicaSetStats counts replication-level events; all fields are atomic.
// Transport-level counters (retries, checksum faults, ...) live in the
// ReplicaSet's fabric.Stats block.
type ReplicaSetStats struct {
	breakerOpens atomic.Uint64 // closed->open transitions
	probes       atomic.Uint64 // half-open probes attempted
	probeFails   atomic.Uint64 // probes that sent the breaker back to open
	resyncedKeys atomic.Uint64 // missed writes replayed onto a returning replica
	readRepairs  atomic.Uint64 // stale/corrupt/absent replica blobs overwritten from a healthy peer
	failovers    atomic.Uint64 // reads served after at least one replica failed the op
	quorumFails  atomic.Uint64 // writes that could not reach the ack quorum
	restarts     atomic.Uint64 // replica restarts detected via a changed hello generation
	deltaRejoins atomic.Uint64 // restarts of a durable replica: repair only the writes it missed
	fullResyncs  atomic.Uint64 // restarts of a non-durable replica: every tracked key re-marked missed
}

// BreakerOpens reports closed-to-open breaker transitions.
func (s *ReplicaSetStats) BreakerOpens() uint64 { return s.breakerOpens.Load() }

// Probes reports half-open probe attempts.
func (s *ReplicaSetStats) Probes() uint64 { return s.probes.Load() }

// ProbeFails reports probes that sent the breaker back to open.
func (s *ReplicaSetStats) ProbeFails() uint64 { return s.probeFails.Load() }

// ResyncedKeys reports missed writes replayed onto returning replicas.
func (s *ReplicaSetStats) ResyncedKeys() uint64 { return s.resyncedKeys.Load() }

// ReadRepairs reports replica blobs overwritten from a healthy peer after
// a read found them stale, corrupt, or missing.
func (s *ReplicaSetStats) ReadRepairs() uint64 { return s.readRepairs.Load() }

// Failovers reports reads that were served only after at least one
// replica failed the operation.
func (s *ReplicaSetStats) Failovers() uint64 { return s.failovers.Load() }

// QuorumFails reports writes that could not gather the configured ack
// quorum.
func (s *ReplicaSetStats) QuorumFails() uint64 { return s.quorumFails.Load() }

// Restarts reports replica restarts detected through a changed restart
// generation in the hello exchange.
func (s *ReplicaSetStats) Restarts() uint64 { return s.restarts.Load() }

// DeltaRejoins reports restarts of durable replicas, rejoined by replaying
// only the writes missed during their downtime.
func (s *ReplicaSetStats) DeltaRejoins() uint64 { return s.deltaRejoins.Load() }

// FullResyncs reports restarts of non-durable replicas (came back empty):
// every tracked key was re-marked missed and replayed from peers.
func (s *ReplicaSetStats) FullResyncs() uint64 { return s.fullResyncs.Load() }

// String implements fmt.Stringer.
func (s *ReplicaSetStats) String() string {
	return fmt.Sprintf("breakerOpens=%d probes=%d probeFails=%d resynced=%d readRepairs=%d failovers=%d quorumFails=%d restarts=%d deltaRejoins=%d fullResyncs=%d",
		s.BreakerOpens(), s.Probes(), s.ProbeFails(), s.ResyncedKeys(), s.ReadRepairs(), s.Failovers(), s.QuorumFails(), s.Restarts(), s.DeltaRejoins(), s.FullResyncs())
}
