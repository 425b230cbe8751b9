package fabric

import (
	"fmt"

	"trackfm/internal/obs"
)

// This file adapts the fabric's counter blocks onto the obs registry.
// Registration is read-only plumbing: the counters keep their atomic
// storage and existing accessors; the registry reads through CounterFunc
// closures, so registering has no effect on the hot paths.

// Register exposes the transport-level counters on reg. Labels distinguish
// multiple transports sharing a registry (e.g. obs.L("transport", "tcp")).
func (s *Stats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("trackfm_fabric_retries_total",
		"Operations resent once because the peer had closed their idle socket (server restart).", s.Retries, labels...)
	reg.CounterFunc("trackfm_fabric_timeouts_total",
		"Attempts that expired their per-operation deadline.", s.Timeouts, labels...)
	reg.CounterFunc("trackfm_fabric_reconnects_total",
		"Successful re-dials after a dead connection.", s.Reconnects, labels...)
	reg.CounterFunc("trackfm_fabric_short_reads_total",
		"Responses truncated mid-frame.", s.ShortReads, labels...)
	reg.CounterFunc("trackfm_fabric_unavailable_total",
		"Connection-level failures (refused, reset, dial errors).", s.Unavailable, labels...)
	reg.CounterFunc("trackfm_fabric_checksum_faults_total",
		"Integrity failures detected (wire CRC, corrupt server blob, replica mismatch).", s.ChecksumFaults, labels...)
	reg.CounterFunc("trackfm_fabric_overloads_total",
		"Overload rejects received from server-side admission control (backpressure).", s.Overloads, labels...)
	reg.CounterFunc("trackfm_fabric_deadline_misses_total",
		"Operations that failed with ErrDeadlineExceeded (budget exhausted or late result discarded).", s.DeadlineMisses, labels...)
	reg.GaugeFunc("trackfm_transport_open_conns",
		"Sockets the TCP transport holds open, idle or in use (one per concurrent caller, capped).",
		func() float64 { return float64(s.OpenConns()) }, labels...)
	reg.CounterFunc("trackfm_transport_conn_waits_total",
		"Callers that found every connection in use at the cap and waited for one.", s.ConnWaits, labels...)
	reg.CounterFunc("trackfm_transport_pipelined_fetches_total",
		"Fetches issued on the TCP transport's prefetch stream (requests written ahead of their replies).", s.PipelinedFetches, labels...)
	reg.CounterFunc("trackfm_transport_stream_flushes_total",
		"Writes of corked prefetch-stream requests to the socket (pipelined fetches / flushes = requests per write).", s.StreamFlushes, labels...)
	reg.CounterFunc("trackfm_transport_carried_pushes_total",
		"Pushes the TCP transport wrote ahead of another request in the same exchange (no round trip of their own).", s.CarriedPushes, labels...)
	reg.CounterFunc("trackfm_transport_carry_exchanges_total",
		"Exchanges that carried at least one push ahead of their own request (carried pushes / carry exchanges = pushes per carry).", s.CarryExchanges, labels...)
}

// Register exposes the retry-budget token balance and denial count on
// reg; a far engine registers its budget whatever its transport.
func (b *RetryBudget) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("trackfm_retry_budget_tokens",
		"Current retry-budget token balance (a retry costs 1; requests earn the configured ratio).",
		b.Balance, labels...)
	reg.CounterFunc("trackfm_retry_budget_denied_total",
		"Retries denied for lack of retry-budget tokens.", b.Exhausted, labels...)
}

// Register exposes the server-side protocol counters on reg.
func (s *ServerStats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("trackfm_server_conns_total",
		"Connections accepted over the server's lifetime.", s.Conns, labels...)
	reg.CounterFunc("trackfm_server_frames_total",
		"Well-formed request frames served.", s.Frames, labels...)
	reg.CounterFunc("trackfm_server_bad_frames_total",
		"Connections dropped for an unknown opcode, a first frame that is not a valid hello, or a hello elsewhere.", s.BadFrames, labels...)
	reg.CounterFunc("trackfm_server_oversize_rejects_total",
		"Requests rejected for advertising a payload above the protocol limit.", s.OversizeRejects, labels...)
	reg.CounterFunc("trackfm_server_hellos_total",
		"Hellos accepted (one opens every connection).", s.Hellos, labels...)
	reg.CounterFunc("trackfm_server_size_mismatches_total",
		"Fetches of a truncated blob answered with an integrity error frame.", s.SizeMismatches, labels...)
	reg.CounterFunc("trackfm_server_corrupt_blobs_total",
		"Fetches of a checksum-failing blob answered with an integrity error frame.", s.CorruptBlobs, labels...)
	reg.CounterFunc("trackfm_server_wire_rejects_total",
		"Pushes whose CRC trailer failed verification (payload discarded).", s.WireRejects, labels...)
	reg.CounterFunc("trackfm_server_sheds_total",
		"Requests rejected by admission control with an overload frame.", s.Sheds, labels...)
	reg.CounterFunc("trackfm_server_store_fails_total",
		"Writes the backing store refused (e.g. WAL append failure); answered with an error frame, never acked.", s.StoreFails, labels...)
	reg.CounterFunc("trackfm_server_flushes_total",
		"Writes of buffered replies to a socket (frames / flushes = replies per write; 1 for clients with one request in flight).", s.Flushes, labels...)
}

// Register exposes the replication-level counters on reg.
func (s *ReplicaSetStats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("trackfm_replica_breaker_opens_total",
		"Closed-to-open circuit-breaker transitions.", s.BreakerOpens, labels...)
	reg.CounterFunc("trackfm_replica_probes_total",
		"Half-open probe attempts.", s.Probes, labels...)
	reg.CounterFunc("trackfm_replica_probe_fails_total",
		"Probes that sent the breaker back to open.", s.ProbeFails, labels...)
	reg.CounterFunc("trackfm_replica_resynced_keys_total",
		"Missed writes replayed onto returning replicas.", s.ResyncedKeys, labels...)
	reg.CounterFunc("trackfm_replica_read_repairs_total",
		"Stale, corrupt, or absent replica blobs overwritten from a healthy peer.", s.ReadRepairs, labels...)
	reg.CounterFunc("trackfm_replica_failovers_total",
		"Reads served only after at least one replica failed the operation.", s.Failovers, labels...)
	reg.CounterFunc("trackfm_replica_quorum_fails_total",
		"Writes that could not gather the configured ack quorum.", s.QuorumFails, labels...)
	reg.CounterFunc("trackfm_replica_restarts_total",
		"Replica restarts detected via a changed hello restart generation.", s.Restarts, labels...)
	reg.CounterFunc("trackfm_replica_delta_rejoins_total",
		"Restarts of durable replicas rejoined by replaying only the writes missed during downtime.", s.DeltaRejoins, labels...)
	reg.CounterFunc("trackfm_replica_full_resyncs_total",
		"Restarts of non-durable (came back empty) replicas: all tracked keys re-marked missed.", s.FullResyncs, labels...)
}

// Register exposes the set's transport counters, replication counters, and a
// per-replica breaker view (trackfm_replica_up{replica="rN"}, 1 when the
// breaker is closed, 0.5 half-open, 0 open; trackfm_replica_missed_keys,
// writes the replica has not yet acknowledged). Reads take the set's mutex,
// so a scrape observes a consistent breaker state.
func (rs *ReplicaSet) Register(reg *obs.Registry, labels ...obs.Label) {
	rs.stats.Register(reg, labels...)
	rs.rstats.Register(reg, labels...)
	for i := range rs.members {
		lbls := append([]obs.Label{obs.L("replica", fmt.Sprintf("r%d", i))}, labels...)
		i := i
		reg.GaugeFunc("trackfm_replica_up",
			"Replica breaker state: 1 closed (serving), 0.5 half-open (probing), 0 open (quarantined).",
			func() float64 {
				switch rs.breakerState(i) {
				case BreakerClosed:
					return 1
				case BreakerHalfOpen:
					return 0.5
				default:
					return 0
				}
			}, lbls...)
		reg.GaugeFunc("trackfm_replica_missed_keys",
			"Writes this replica has not yet acknowledged or been resynced to.",
			func() float64 { return float64(rs.missedKeys(i)) }, lbls...)
	}
}

// breakerState reads replica i's breaker state under the set's mutex.
func (rs *ReplicaSet) breakerState(i int) BreakerState {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.brk[i].state
}

// missedKeys reads replica i's missed-write backlog under the set's mutex.
func (rs *ReplicaSet) missedKeys(i int) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.missed[i])
}
