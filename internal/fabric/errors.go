package fabric

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// Typed transport errors. Error-aware callers (ErrorTransport users) match
// these with errors.Is; every error returned by TryFetch/TryPush/TryDelete
// wraps exactly one of them so retry policies can branch on failure class
// without string matching.
var (
	// ErrRemoteUnavailable covers connection-level failures: refused or
	// reset connections, failed re-dials, and fault-injected outages. The
	// remote node may come back; the operation is safe to retry.
	ErrRemoteUnavailable = errors.New("fabric: remote node unavailable")

	// ErrTimeout is a per-operation deadline expiry: the remote node is
	// reachable but did not answer in time (slow link, overloaded node).
	ErrTimeout = errors.New("fabric: operation timed out")

	// ErrShortRead is a response truncated mid-frame: the connection died
	// (or the peer misbehaved) after the request was accepted. The request
	// may or may not have been applied remotely; fetches are idempotent
	// and safe to retry, pushes are last-writer-wins and also safe.
	ErrShortRead = errors.New("fabric: short read mid-response")

	// ErrProtocol is a framing violation that cannot be retried: an
	// unexpected ack byte, an error frame from the server, or a response
	// flag outside the protocol. The connection is torn down.
	ErrProtocol = errors.New("fabric: protocol violation")

	// ErrClosed is returned for operations on an explicitly Closed
	// transport. Never retried.
	ErrClosed = errors.New("fabric: transport closed")

	// ErrIntegrity is an end-to-end integrity failure: a payload whose
	// CRC32-C did not survive the wire, or a stored blob the remote node
	// reports as corrupt or truncated. Whether it is retryable depends on
	// where the corruption lives: in-flight corruption heals on retry (the
	// far engine re-issues it), corruption at rest does not (the server
	// answers it as an error frame the transport marks Permanent).
	ErrIntegrity = errors.New("fabric: integrity check failed")

	// ErrDeadlineExceeded is a per-operation deadline expiry: the caller's
	// end-to-end budget (carried in the request header and enforced at every
	// layer — transport attempts, runtime retry loops) ran out before the
	// operation produced a usable result. It is distinct from ErrTimeout, which
	// is one attempt's socket deadline: a timed-out attempt may be retried, a
	// deadline-exceeded operation may not. An operation whose result arrives
	// after the deadline is also reported as ErrDeadlineExceeded — callers
	// never consume a result that missed its budget.
	ErrDeadlineExceeded = errors.New("fabric: operation deadline exceeded")

	// ErrOverloaded is the server's admission-control reject: the request
	// was shed before service (bounded queue full, queue delay past the
	// CoDel target, or infeasible within the carried deadline). It is
	// backpressure, not failure — the connection stays healthy, the retry
	// budget is not charged, and the far engine re-issues it paced by the
	// transport.
	ErrOverloaded = errors.New("fabric: server overloaded, request shed")
)

// permanentError marks an error the retry loop must not retry (protocol
// violations, oversize payloads, explicit close).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// permanent wraps err so the retry loop surfaces it immediately.
func permanent(err error) error { return permanentError{err} }

// Permanent reports whether err is one no retry can cure: the transport
// has stopped retrying it, and so should a caller with a retry loop of its
// own. A closed transport, a protocol violation, and a blob the node
// reports corrupt at rest are permanent.
func Permanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

func isTimeout(err error) bool    { return errors.Is(err, ErrTimeout) }
func isShortRead(err error) bool  { return errors.Is(err, ErrShortRead) }
func isIntegrity(err error) bool  { return errors.Is(err, ErrIntegrity) }
func isOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }
func isDeadline(err error) bool   { return errors.Is(err, ErrDeadlineExceeded) }

// classify maps a raw network error onto the typed taxonomy, preserving the
// original error in the wrap chain for diagnostics.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if Permanent(err) {
		return err
	}
	if isOverloaded(err) || isDeadline(err) || isIntegrity(err) {
		// Already typed by the overload-control layer or the checksum
		// check; re-wrapping as ErrRemoteUnavailable would hide the class
		// the retry loop and Stats branch on.
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrShortRead, err)
	}
	return fmt.Errorf("%w: %v", ErrRemoteUnavailable, err)
}
