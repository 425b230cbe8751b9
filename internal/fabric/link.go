// Package fabric models the interconnect between the local machine and the
// remote memory node.
//
// Two transports are provided. SimLink charges cycle costs to a sim.Env and
// moves data through an in-process remote store — this is the transport all
// deterministic experiments use. TCPTransport moves the same operations over
// real sockets (stdlib net) to an actual remote memory server (see
// cmd/fmserver); the examples and the wall-clock benchmark
// (benchmarks/fmbench) run on it.
package fabric

import (
	"sync"

	"trackfm/internal/sim"
)

// Backend identifies which network backend's cost profile a SimLink uses.
// The paper's two systems use different backends: Fastswap rides one-sided
// RDMA; AIFM (and therefore TrackFM) rides Shenango's TCP stack.
type Backend int

const (
	// BackendTCP models AIFM's TCP-based backend (~35K cycles for a
	// remote 4KB object, Table 2).
	BackendTCP Backend = iota
	// BackendRDMA models Fastswap's one-sided RDMA backend (~34K cycles
	// for a remote 4KB page, Table 2).
	BackendRDMA
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendTCP:
		return "tcp"
	case BackendRDMA:
		return "rdma"
	default:
		return "unknown"
	}
}

// ErrorTransport is the interface the runtimes consume to move object or
// page data to and from the remote node. Implementations charge their cost
// model as a side effect and surface failures as the typed errors in
// errors.go, so callers can distinguish "key absent" from "network failed"
// and retry or stall instead of silently corrupting the mutator's data.
//
// Every operation takes a Deadline; the zero Deadline means "no deadline".
// Implementations enforce the deadline natively where they can
// (TCPTransport bounds socket deadlines and carries the remaining budget to
// the server) and otherwise refuse to start an expired operation and report
// ErrDeadlineExceeded for one that completes late.
//
// Buffer ownership follows one rule — the callee copies. dst and src are
// caller-owned scratch valid only for the duration of the call: a fetch
// fills dst before returning, a push has fully copied (or transmitted) src
// by the time it returns, and no implementation may retain a reference to
// either afterwards. This is what lets callers pass pooled bufpool leases
// or zero-copy arena windows and release or reuse them the moment the call
// returns. (AsyncFetcher.StartFetch, below, is the one operation that
// outlives its call, and says who owns dst meanwhile; PushCarrier's methods
// follow the rule for every Push.Src they are handed, as TryPushUntil does.)
type ErrorTransport interface {
	// TryFetchUntil retrieves the n-byte blob stored under key into dst
	// (len(dst) == n), bounded by dl: found reports key presence only
	// when err is nil. A fetch of an absent key still pays the round
	// trip (the remote node answers with zeros, modelling freshly
	// allocated remote memory). Once the budget runs out the operation
	// fails with ErrDeadlineExceeded, and a result that arrives late is
	// discarded rather than returned. On error the contents of dst are
	// unspecified and must not be used.
	TryFetchUntil(key uint64, dst []byte, dl Deadline) (found bool, err error)

	// TryPushUntil stores src under key on the remote node, bounded by
	// dl; on error the remote copy may or may not have been updated
	// (pushes are idempotent last-writer-wins, so retrying is always
	// safe). A push that completes past its deadline did reach the
	// remote node but reports ErrDeadlineExceeded so backpressure
	// propagates.
	TryPushUntil(key uint64, src []byte, dl Deadline) error

	// TryDeleteUntil drops key from the remote node (object freed),
	// bounded by dl. Deletes are idempotent.
	TryDeleteUntil(key uint64, dl Deadline) error
}

// AsyncFetcher is the optional interface of transports that can start a
// fetch and complete it later, so a prefetcher overlaps the round trip with
// the caller's computation. TCPTransport pipelines such fetches on one
// connection; SimLink and FaultLink complete at once and charge the
// overlapped cost model instead (only the issue cost and the bandwidth
// term, the fixed latency hidden). Use the StartFetch helper rather than
// asserting directly.
type AsyncFetcher interface {
	// StartFetch issues a speculative, undeadlined fetch of key into dst
	// and may return before the bytes arrive. It is the one exception to
	// the callee-copies rule: dst belongs to the transport from the call
	// until the ticket's Wait returns, and the caller must neither read,
	// write nor reuse it in between. An error means nothing was started
	// and dst is the caller's again.
	StartFetch(key uint64, dst []byte) (Ticket, error)
}

// Push is one unit to write back: Src is to be stored under Key.
type Push struct {
	Key uint64
	Src []byte
}

// PushCarrier is the optional interface of transports on which several
// pushes — and a fetch behind them — cost one round trip instead of one
// each: a write-behind window (far.Engine's) hands over the dirty units it
// has parked when the next miss goes to the wire. TCPTransport writes the
// lot into one buffer and flushes once. SimLink, FaultLink and decorators
// that forward only the blocking triple are not carriers, and over them
// every push stays a TryPushUntil of its own.
//
// The pushes of a call are all or nothing among themselves: a nil error
// for them means every one was acknowledged; on error any of them may or
// may not have been stored — pushes are idempotent last-writer-wins, so
// the caller keeps its copies and sends them again. A fetch carried behind
// them is decided by its own reply: a node that refuses a push (it has
// stopped taking writes, or the push's trailer failed) and then answers
// the fetch has served the fetch. A cut connection or an unframed stream
// fails both. dl bounds the whole call, retries included, as it bounds
// TryPushUntil. The pushes slice and every Src in it are the caller's
// again when the call returns.
type PushCarrier interface {
	// TryFetchAfterPushes stores every push, then fetches key into dst as
	// TryFetchUntil does; the server sees the pushes before the fetch.
	// pushed is the pushes' outcome and err the fetch's.
	TryFetchAfterPushes(pushes []Push, key uint64, dst []byte, dl Deadline) (found bool, pushed, err error)

	// TryPushAll stores every push.
	TryPushAll(pushes []Push, dl Deadline) error
}

// Ticket is one started fetch. It is a small value: copy it freely, but
// call a pending ticket's Wait exactly once — that is what hands dst back
// to the caller. A ticket born complete (and the zero Ticket is one,
// reporting the key absent) has nothing to hand back: its Wait only repeats
// the result.
type Ticket struct {
	s     *fetchStream // nil: complete when it was issued
	seq   uint64       // position in s's issue order
	found bool         // the result of a ticket born complete
}

// CompleteTicket returns a ticket whose fetch has already finished with
// the given result: what a transport with nothing to overlap hands out.
func CompleteTicket(found bool) Ticket { return Ticket{found: found} }

// Pending reports whether Wait still has a reply to collect, which may
// block. A ticket born complete is never pending.
func (t Ticket) Pending() bool { return t.s != nil }

// Wait completes the fetch: found reports key presence only when err is
// nil, and on error the contents of dst are unspecified and must not be
// used. Replies complete in issue order, so waiting on a ticket also
// collects every earlier one still outstanding (their own Waits then
// return at once).
func (t Ticket) Wait() (found bool, err error) {
	if t.s == nil {
		return t.found, nil
	}
	return t.s.wait(t.seq)
}

// StartFetch starts a speculative fetch on t: split-phase when t is an
// AsyncFetcher, otherwise an ordinary blocking undeadlined fetch whose
// ticket is born complete. Prefetchers call this so they work — merely
// without overlap — over transports with no async path (decorators that
// forward only the blocking methods, such as fmbench's tracer).
func StartFetch(t ErrorTransport, key uint64, dst []byte) (Ticket, error) {
	if af, ok := t.(AsyncFetcher); ok {
		return af.StartFetch(key, dst)
	}
	found, err := t.TryFetchUntil(key, dst, Deadline{})
	return Ticket{found: found}, err
}

// SimLink is the deterministic in-process transport. It stores pushed blobs
// in a map and charges the calibrated fixed+bandwidth cycle cost of its
// backend for every operation. It is safe for concurrent use: the blob map
// sits behind a mutex (clock and counters are already atomic), modelling
// the remote node serving independent requests.
type SimLink struct {
	env     *sim.Env
	backend Backend
	mu      sync.Mutex
	store   map[uint64][]byte
}

// NewSimLink returns a link charging env with the given backend's costs.
func NewSimLink(env *sim.Env, backend Backend) *SimLink {
	return &SimLink{env: env, backend: backend, store: make(map[uint64][]byte)}
}

func (l *SimLink) fetchCost(n int) uint64 {
	if l.backend == BackendRDMA {
		return l.env.Costs.RemotePageFetch(n)
	}
	return l.env.Costs.RemoteObjectFetch(n)
}

// fetch copies key's blob into dst, zero-filled when absent (freshly
// allocated remote memory), and counts the bytes. The caller has charged
// the clock.
func (l *SimLink) fetch(key uint64, dst []byte) bool {
	sim.Add(&l.env.Counters.BytesFetched, uint64(len(dst)))
	l.mu.Lock()
	blob, ok := l.store[key]
	if ok {
		copy(dst, blob)
	}
	l.mu.Unlock()
	if !ok {
		for i := range dst {
			dst[i] = 0
		}
	}
	return ok
}

// TryFetchUntil implements ErrorTransport. The in-process link cannot
// fail on the wire, but its cost model advances the simulated clock, so a
// cycle-denominated deadline can genuinely expire mid-operation; a late
// result is discarded per the interface contract.
func (l *SimLink) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	if dl.Expired() {
		return false, errDeadline("fetch not started")
	}
	l.env.Clock.Advance(l.fetchCost(len(dst)))
	found := l.fetch(key, dst)
	if dl.Expired() {
		return false, errDeadline("fetch completed past deadline")
	}
	return found, nil
}

// StartFetch implements AsyncFetcher; the ticket is born complete and err
// is always nil. The fixed round-trip latency overlaps with computation
// (how the AIFM prefetcher earns its speedups); what cannot be hidden is
// the larger of the per-message software cost and the link-occupancy
// (bandwidth) term — small objects pay per-packet overhead, large objects
// pay the wire (§3.2's object-size discussion).
func (l *SimLink) StartFetch(key uint64, dst []byte) (Ticket, error) {
	charge := l.env.Costs.PrefetchIssue
	if xfer := l.env.Costs.TransferCycles(len(dst)); xfer > charge {
		charge = xfer
	}
	l.env.Clock.Advance(charge)
	return Ticket{found: l.fetch(key, dst)}, nil
}

// TryPushUntil implements ErrorTransport (see TryFetchUntil; a late push
// did land remotely, pushes being idempotent last-writer-wins).
func (l *SimLink) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	if dl.Expired() {
		return errDeadline("push not started")
	}
	// Evacuation overlaps with computation in AIFM; we charge only the
	// bandwidth term, not the full round-trip latency.
	l.env.Clock.Advance(l.env.Costs.TransferCycles(len(src)))
	sim.Add(&l.env.Counters.BytesEvicted, uint64(len(src)))
	l.mu.Lock()
	// Reuse the stored blob when the size matches: a steady-state
	// write-back cycle over a fixed working set touches the allocator
	// only on first push of each key.
	blob := l.store[key]
	if len(blob) != len(src) {
		blob = make([]byte, len(src))
	}
	copy(blob, src)
	l.store[key] = blob
	l.mu.Unlock()
	if dl.Expired() {
		return errDeadline("push completed past deadline")
	}
	return nil
}

// TryDeleteUntil implements ErrorTransport.
func (l *SimLink) TryDeleteUntil(key uint64, dl Deadline) error {
	if dl.Expired() {
		return errDeadline("delete not started")
	}
	l.mu.Lock()
	delete(l.store, key)
	l.mu.Unlock()
	if dl.Expired() {
		return errDeadline("delete completed past deadline")
	}
	return nil
}

var (
	_ ErrorTransport = (*SimLink)(nil)
	_ AsyncFetcher   = (*SimLink)(nil)
)

// RemoteBytes reports the total bytes currently resident on the simulated
// remote node, for budget assertions in tests.
func (l *SimLink) RemoteBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, b := range l.store {
		n += uint64(len(b))
	}
	return n
}

// RemoteKeys reports how many distinct keys the remote node holds.
func (l *SimLink) RemoteKeys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.store)
}
