package fabric

import "trackfm/internal/obs"

// This file adapts the fabric's counter blocks onto the obs registry.
// Registration is read-only plumbing: the counters keep their atomic
// storage and existing accessors; the registry reads through CounterFunc
// closures, so registering has no effect on the hot paths.

// Register exposes the transport-level counters on reg. Labels distinguish
// multiple transports sharing a registry (e.g. obs.Label{Key: "transport", Value: "tcp"}).
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
		"Integrity failures detected (wire CRC, corrupt server blob).", s.ChecksumFaults, labels...)
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
		"Writes of prefetch-stream requests to the socket, one per window of requests (pipelined fetches / flushes = requests per write).", s.StreamFlushes, labels...)
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
