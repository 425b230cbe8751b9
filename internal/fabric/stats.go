package fabric

import (
	"fmt"
	"sync/atomic"
)

// Stats is the transport-level fault-handling counter block. All fields are
// updated atomically so a transport shared by concurrent goroutines (and
// observed by a stats reporter) is race-free. Read individual counters with
// the accessor methods.
type Stats struct {
	retries     atomic.Uint64 // resends of an operation whose idle socket the peer had closed
	timeouts    atomic.Uint64 // attempts that hit the per-op deadline
	reconnects  atomic.Uint64 // successful re-dials after a dead connection
	shortReads  atomic.Uint64 // responses truncated mid-frame
	unavailable atomic.Uint64 // connection-level failures (refused/reset/dial)
	checksum    atomic.Uint64 // integrity failures detected (wire CRC, server corrupt frame)

	overloads      atomic.Uint64 // overload rejects received (server shed the request)
	deadlineMisses atomic.Uint64 // operations that failed with ErrDeadlineExceeded

	openConns atomic.Int64  // sockets a TCPTransport currently holds open, idle or in use
	connWaits atomic.Uint64 // callers that found every connection in use at the cap and waited

	pipelined     atomic.Uint64 // fetches issued on a TCPTransport's prefetch stream
	streamFlushes atomic.Uint64 // writes of unsent stream requests to the socket, one per window

	carried atomic.Uint64 // pushes a TCPTransport wrote ahead of another request in one exchange
	carries atomic.Uint64 // exchanges that carried at least one push ahead
}

// Retries reports operations a TCPTransport sent a second time because the
// socket they found idle had been closed by the peer (a server restart).
// It is the transport's only resend: re-issuing a failed operation is the
// far engine's decision, under its retry budget.
func (s *Stats) Retries() uint64 { return s.retries.Load() }

// Timeouts reports attempts that expired their per-operation deadline.
func (s *Stats) Timeouts() uint64 { return s.timeouts.Load() }

// Reconnects reports successful re-dials after the connection was marked dead.
func (s *Stats) Reconnects() uint64 { return s.reconnects.Load() }

// ShortReads reports responses truncated mid-frame.
func (s *Stats) ShortReads() uint64 { return s.shortReads.Load() }

// Unavailable reports connection-level failures (refused, reset, dial errors).
func (s *Stats) Unavailable() uint64 { return s.unavailable.Load() }

// ChecksumFaults reports detected integrity failures: a wire CRC32-C
// trailer that did not verify, or a corrupt/truncated-blob error frame
// from the server. Every event here is corruption that was caught instead
// of being handed to the mutator.
func (s *Stats) ChecksumFaults() uint64 { return s.checksum.Load() }

// Overloads reports overload rejects received from the server's admission
// control: attempts that were shed before service — backpressure, which
// the far engine re-issues without a retry-budget token.
func (s *Stats) Overloads() uint64 { return s.overloads.Load() }

// DeadlineMisses reports operations that failed with ErrDeadlineExceeded:
// the end-to-end budget ran out before a usable result, or the result
// arrived late and was discarded.
func (s *Stats) DeadlineMisses() uint64 { return s.deadlineMisses.Load() }

// OpenConns reports the sockets a TCPTransport currently holds open, idle
// or in use: one per caller that has been in flight at once, at most 16.
func (s *Stats) OpenConns() int64 { return s.openConns.Load() }

// ConnWaits reports callers that found every connection of a TCPTransport
// in use at the cap and had to wait for one to be returned.
func (s *Stats) ConnWaits() uint64 { return s.connWaits.Load() }

// PipelinedFetches reports fetches a TCPTransport issued on its prefetch
// stream: requests written ahead of their replies (StartFetch), as opposed
// to the blocking round trips of the demand path.
func (s *Stats) PipelinedFetches() uint64 { return s.pipelined.Load() }

// StreamFlushes reports how many times the prefetch stream wrote its
// unsent requests to the socket: once per window, when the stream has
// gone idle, or when a Wait finds its request unsent. PipelinedFetches ÷
// StreamFlushes is the requests that shared one write — the window depth
// (8 for a depth-8 loop) in steady state.
func (s *Stats) StreamFlushes() uint64 { return s.streamFlushes.Load() }

// CarriedPushes reports pushes a TCPTransport wrote ahead of another
// request in the same exchange (PushCarrier): each shared that request's
// round trip instead of paying its own.
func (s *Stats) CarriedPushes() uint64 { return s.carried.Load() }

// CarryExchanges reports exchanges that carried at least one push ahead of
// their own request; CarriedPushes ÷ CarryExchanges is the pushes per carry.
func (s *Stats) CarryExchanges() uint64 { return s.carries.Load() }

// String implements fmt.Stringer on the live counter block, so a stats
// ticker can print a transport's health.
func (s *Stats) String() string {
	return fmt.Sprintf("retries=%d timeouts=%d reconnects=%d shortReads=%d unavailable=%d checksumFaults=%d overloads=%d deadlineMisses=%d openConns=%d connWaits=%d pipelined=%d streamFlushes=%d carriedPushes=%d carryExchanges=%d",
		s.Retries(), s.Timeouts(), s.Reconnects(), s.ShortReads(), s.Unavailable(), s.ChecksumFaults(), s.Overloads(), s.DeadlineMisses(), s.OpenConns(), s.ConnWaits(), s.PipelinedFetches(), s.StreamFlushes(), s.CarriedPushes(), s.CarryExchanges())
}

// record classifies err (already mapped by classify) into the right bucket.
func (s *Stats) record(err error) {
	switch {
	case err == nil:
	case isOverloaded(err):
		s.overloads.Add(1)
	case isDeadline(err):
		s.deadlineMisses.Add(1)
	case isTimeout(err):
		s.timeouts.Add(1)
	case isShortRead(err):
		s.shortReads.Add(1)
	case isIntegrity(err):
		s.checksum.Add(1)
	default:
		s.unavailable.Add(1)
	}
}
