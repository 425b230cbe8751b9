package fabric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// The frame. One wire format, big-endian throughout; a CRC32-C trailer
// (remote.Checksum) follows every payload.
//
//	client sends                                        server answers
//	hello  op(1)=4 magic(8) version(4)                  ackHello version(1) flags(1) gen(8)
//	fetch  op(1)=1 key(8) length(4) deadlineNs(8)       flag(1) payload(length) crc(4)
//	push   op(1)=2 key(8) length(4) deadlineNs(8)       ack(1)
//	       payload(length) crc(4)
//	delete op(1)=3 key(8) length(4)=0 deadlineNs(8)     ack(1)
//
// The hello is the first frame of every connection and appears nowhere
// else: a connection that opens with anything but a hello carrying
// helloMagic, or sends a second one, is counted in badFrames and closed
// before anything reaches the store. The server answers the one version it
// speaks, whatever the client offered; a client that reads another version
// fails with a permanent ErrProtocol. flags bit 0 (helloGenDurable) says the
// node recovered its store from local durable state; gen is its restart
// generation, which durably increases on every restart (0 = not advertised).
//
// A fetch's length is the size wanted; its reply's flag is flagAbsent (the
// payload is zeros) or flagFound. ack is ackOK. In place of a fetch reply or
// an ack the server may send one of three single bytes, after which nothing
// follows and the stream stays in sync: ackErr, ackCorrupt or ackOverloaded.
// deadlineNs is the operation's remaining budget (0 = none), which is what
// lets admission control shed a request it cannot finish in time.
//
// A connection's requests are answered strictly in the order they arrive,
// one reply (or one-byte refusal) each. That order is all that matches a
// reply to its request, and a client may rely on it to write several
// requests before reading the first reply: the prefetch stream (stream.go),
// and an exchange that carries pushes ahead of its own request (exchange).
const (
	opFetch  = byte(1)
	opPush   = byte(2)
	opDelete = byte(3)
	opHello  = byte(4)

	flagAbsent = byte(0)
	flagFound  = byte(1)

	ackOK    = byte(0xA5)
	ackHello = byte(0x5A)
	// ackErr doubles as the fetch error flag: any rejected request is
	// answered with this byte so the client gets a definite error frame
	// instead of a silently dropped connection.
	ackErr = byte(0xEE)
	// ackCorrupt / flagCorrupt is the integrity error frame: the stored
	// blob failed its checksum or was shorter than the requested read
	// (fetch), or a pushed payload's CRC trailer did not verify (push).
	ackCorrupt = byte(0xC7)
	// ackOverloaded doubles as the fetch flag and the push/delete ack for
	// a request shed by server-side admission control before service. The
	// stream stays in sync; clients treat it as backpressure — re-issued
	// after backoff, never charged to the retry budget.
	ackOverloaded = byte(0xB7)

	protoVersion = 4

	// helloGenDurable is the hello-reply flags bit advertising that the
	// node's store survives restarts (WAL + snapshots).
	helloGenDurable = byte(1)

	// helloMagic guards the handshake opcode, so random bytes cannot pass
	// for a hello: "TFMFABR2" as a big-endian integer in the key field.
	helloMagic = uint64(0x54464D4641425232)
)

// Frame part lengths (see the table above).
const (
	helloLen      = 13
	helloReplyLen = 11
	hdrLen        = 21
	crcLen        = 4
)

// wireBufSize sizes the bufio buffers on both ends of a connection for a
// window of frames, not one: the replies to a prefetch stream's window (8
// fetches of 4 KiB, 32.8 KB) are one write(2) on the server and one
// read(2) on the client, and so is a full write-behind window (8 carried
// 4 KiB pushes and the fetch behind them, 33 KB) on the way out; bufio's
// default 4096 bytes split even one 4 KiB object frame into two syscalls
// per side. It also holds the largest frame whole — a MaxPayload push, 21
// + 65 536 + 4 = 65 561 B — which is what lets Server.handle serve every
// payload in place: a push is checked and stored from the reader's
// buffer, a fetch reply is built in the writer's.
const wireBufSize = 64<<10 + 64

// payloadCRC is the trailer checksum over a payload frame. It deliberately
// shares remote.Checksum (CRC32-C), so a blob has one checksum identity
// from the client's buffer, across the wire, to the store and back.
func payloadCRC(p []byte) uint32 { return remote.Checksum(p) }

// MaxPayload bounds a single transfer: the largest object aifm.NewPool
// accepts. A request advertising more is refused at both ends, before
// anything is allocated for it.
const MaxPayload = 64 << 10

// Every legal frame fits one wire buffer (see wireBufSize); a larger
// MaxPayload fails to compile here.
const _ = uint(wireBufSize - (hdrLen + MaxPayload + crcLen))

// ErrPayloadTooLarge is returned when a request advertises a payload above
// the protocol limit.
var ErrPayloadTooLarge = errors.New("fabric: payload exceeds protocol limit")

// ServerStats counts server-side protocol events; all fields are atomic.
type ServerStats struct {
	conns       atomic.Uint64 // connections accepted
	frames      atomic.Uint64 // well-formed request frames served
	flushes     atomic.Uint64 // writes of buffered replies to a socket (beside frames: a handler bumps the two back to back, so they share a cache line)
	badFrames   atomic.Uint64 // unknown opcodes, a first frame that is not a valid hello, a hello anywhere else (connection dropped)
	oversize    atomic.Uint64 // requests rejected with an error frame
	hellos      atomic.Uint64 // hellos accepted
	sizeErrs    atomic.Uint64 // fetches of a truncated blob answered with an integrity error frame
	corrupt     atomic.Uint64 // fetches of a checksum-failing blob answered with an integrity error frame
	wireRejects atomic.Uint64 // pushes whose CRC trailer failed verification (not stored)
	sheds       atomic.Uint64 // requests rejected by admission control with an overload frame
	storeFails  atomic.Uint64 // writes the backing store refused (e.g. WAL append failure): answered with an error frame, never acked
}

// StoreFails reports writes the backing store refused — a durable store
// whose WAL append failed, for example. Each was answered with an error
// frame instead of an ack, so the client never counts it as stored.
func (s *ServerStats) StoreFails() uint64 { return s.storeFails.Load() }

// Conns reports connections accepted over the server's lifetime.
func (s *ServerStats) Conns() uint64 { return s.conns.Load() }

// Frames reports well-formed request frames served.
func (s *ServerStats) Frames() uint64 { return s.frames.Load() }

// BadFrames reports connections dropped for an unknown opcode, a first
// frame that was not a valid hello, or a hello after the first frame.
func (s *ServerStats) BadFrames() uint64 { return s.badFrames.Load() }

// OversizeRejects reports requests rejected for advertising a payload
// above the protocol limit.
func (s *ServerStats) OversizeRejects() uint64 { return s.oversize.Load() }

// Hellos reports hellos accepted: one per connection that opened with a
// valid one.
func (s *ServerStats) Hellos() uint64 { return s.hellos.Load() }

// SizeMismatches reports fetches that found a stored blob shorter than the
// requested read and were answered with an integrity error frame instead
// of a zero-filled tail.
func (s *ServerStats) SizeMismatches() uint64 { return s.sizeErrs.Load() }

// CorruptBlobs reports fetches that found a stored blob failing its
// checksum and were answered with an integrity error frame.
func (s *ServerStats) CorruptBlobs() uint64 { return s.corrupt.Load() }

// WireRejects reports pushes whose payload CRC trailer failed
// verification; the payload was discarded, never stored.
func (s *ServerStats) WireRejects() uint64 { return s.wireRejects.Load() }

// Sheds reports requests rejected by admission control with an overload
// frame instead of being queued.
func (s *ServerStats) Sheds() uint64 { return s.sheds.Load() }

// Flushes reports how many times buffered replies were written to a
// socket. A client with one request in flight gets a flush per frame;
// Frames ÷ Flushes above 1 is a pipelining client's replies sharing writes.
func (s *ServerStats) Flushes() uint64 { return s.flushes.Load() }

// String implements fmt.Stringer.
func (s *ServerStats) String() string {
	return fmt.Sprintf("conns=%d frames=%d flushes=%d badFrames=%d oversize=%d hellos=%d sizeMismatch=%d corruptBlobs=%d wireRejects=%d sheds=%d storeFails=%d",
		s.Conns(), s.Frames(), s.Flushes(), s.BadFrames(), s.OversizeRejects(), s.Hellos(), s.SizeMismatches(), s.CorruptBlobs(), s.WireRejects(), s.Sheds(), s.StoreFails())
}

// BlobStore is what a Server needs from its backing store. *remote.Store
// (the node's one blob map, holding bytes verbatim or compressed at rest)
// and *remote.DurableStore (a WAL and snapshots around one) are the two
// things that satisfy it; a store may refuse a write — a durable store
// whose log append failed must not let the server ack — which the server
// answers with an error frame. Get and Put must not keep dst or src after
// they return: the server passes slices of a connection's own buffers,
// which the next frame overwrites.
type BlobStore interface {
	Put(key uint64, src []byte) error
	Get(key uint64, dst []byte) (bool, error)
	Delete(key uint64) error
}

// Server serves a BlobStore over TCP. Create with NewServer, then call
// ListenAndServe, or Serve on a listener of the caller's own; either one
// accepts connections in a background goroutine.
type Server struct {
	store     BlobStore
	ln        net.Listener
	stats     ServerStats
	admission atomic.Pointer[Admission]

	// gen/durable are what the hello reply advertises (see the frame table
	// above); SetGeneration installs them before serving.
	gen     atomic.Uint64
	durable atomic.Bool

	draining atomic.Bool    // Shutdown started: finish the current frame, then hang up
	wg       sync.WaitGroup // live connection handlers

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer returns a server exposing store.
func NewServer(store BlobStore) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// SetGeneration installs the restart generation the server advertises in
// its hello replies, and whether the backing store is durable (recovered
// from local WAL + snapshot state rather than starting empty). Call before
// ListenAndServe; a generation of 0 means "not advertised" and clients
// ignore it.
func (s *Server) SetGeneration(gen uint64, durable bool) {
	s.gen.Store(gen)
	s.durable.Store(durable)
}

// Stats exposes the server's protocol-event counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Store exposes the backing blob store (for stats reporters).
func (s *Server) Store() BlobStore { return s.store }

// EnableAdmission installs an admission controller built from cfg and
// returns it (for stats registration). With no controller installed the
// server accepts everything.
func (s *Server) EnableAdmission(cfg AdmissionConfig) *Admission {
	a := NewAdmission(cfg)
	s.admission.Store(a)
	return a
}

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves it (see
// Serve). It returns the bound address so callers using port 0 can find
// the ephemeral port.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln in a background goroutine, until the
// first Accept error. The server owns ln from here: Close and Shutdown
// close it.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	go s.serve()
}

func (s *Server) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Refuse the straggler but keep accepting until the
			// listener itself is torn down, so a conn racing Close
			// cannot leave later dials hanging in the backlog.
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// acceptHello serves a connection's first frame, which must be a hello: it
// answers the server's version and identity, whatever version the client
// offered (the caller flushes, as for any reply). It reports false when the
// connection is to be dropped instead.
func (s *Server) acceptHello(r *bufio.Reader, w *bufio.Writer) bool {
	var hello [helloLen]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return false
	}
	if hello[0] != opHello || binary.BigEndian.Uint64(hello[1:9]) != helloMagic {
		s.stats.badFrames.Add(1)
		return false
	}
	reply := [helloReplyLen]byte{ackHello, protoVersion}
	if s.durable.Load() {
		reply[2] |= helloGenDurable
	}
	binary.BigEndian.PutUint64(reply[3:], s.gen.Load())
	if _, err := w.Write(reply[:]); err != nil {
		return false
	}
	s.stats.hellos.Add(1)
	s.stats.frames.Add(1)
	return true
}

// flushUnless writes the replies buffered in w to the socket, unless the
// next need bytes of the request stream are already buffered in r. It is
// called wherever the handler is about to read: a read that cannot be
// satisfied from r may park, and nothing already served may wait behind a
// parked read. Skipping the flush when the next request is already here is
// what lets a client that writes requests ahead (TCPTransport's prefetch
// stream) get its replies back in one write; a client with one request in
// flight never has one buffered, and gets a flush per frame as before. The
// handler's one other flush makes room for a fetch reply (serveFetch).
func (s *Server) flushUnless(r *bufio.Reader, w *bufio.Writer, need int) error {
	if w.Buffered() == 0 || r.Buffered() >= need {
		return nil
	}
	return s.flush(w)
}

// flush writes the replies buffered in w to the socket.
func (s *Server) flush(w *bufio.Writer) error {
	s.stats.flushes.Add(1)
	return w.Flush()
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, wireBufSize)
	w := bufio.NewWriterSize(conn, wireBufSize)
	// admStart/admPending track a frame admitted but not yet finished, so
	// a connection dying mid-service still releases its admission slot
	// (a leaked slot would shrink the bounded queue forever).
	var admStart time.Time
	admPending := false
	admDone := func() {
		if admPending {
			if adm := s.admission.Load(); adm != nil {
				adm.Done(uint64(time.Since(admStart).Nanoseconds()))
			}
			admPending = false
		}
	}
	defer func() {
		// However the loop ended — drain, error, unknown opcode — a reply
		// already served goes out before the hang-up.
		s.flushUnless(r, w, math.MaxInt)
		admDone()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if !s.acceptHello(r, w) {
		return
	}
	// Per-connection scratch: declared per frame, an array handed to
	// io.ReadFull escapes and costs an allocation each.
	var hdr [hdrLen]byte
	// Once Shutdown starts draining, the frame just served (and acked in
	// full) is the last: hang up instead of reading the next request. The
	// client's retry machinery treats that like any other connection loss.
	for !s.draining.Load() {
		if err := s.flushUnless(r, w, hdrLen); err != nil {
			return
		}
		admDone()
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		op := hdr[0]
		key := binary.BigEndian.Uint64(hdr[1:9])
		length := binary.BigEndian.Uint32(hdr[9:13])
		deadlineNs := binary.BigEndian.Uint64(hdr[13:])
		if length > MaxPayload {
			// Answer with an error frame rather than silently
			// dropping the connection; the client sees a definite
			// rejection. After an oversize opPush the stream cannot
			// be resynchronized (an unread payload of unknown size
			// follows), so the connection is closed after the frame;
			// opFetch/opDelete carry no payload and the stream stays
			// in sync, so those connections keep serving.
			s.stats.oversize.Add(1)
			if err := w.WriteByte(ackErr); err != nil || op == opPush {
				return
			}
			continue
		}
		if op == opPush {
			// The payload read below (or its discard, if shed) may park.
			if err := s.flushUnless(r, w, int(length)+crcLen); err != nil {
				return
			}
		}
		if adm := s.admission.Load(); adm != nil {
			if v := adm.OfferEstimate(deadlineNs); v.Shed() {
				// A shed push's payload and CRC trailer are already on the
				// wire; consume them so the stream stays in sync for the
				// next request.
				if op == opPush {
					if _, err := r.Discard(int(length) + crcLen); err != nil {
						return
					}
				}
				s.stats.sheds.Add(1)
				if err := w.WriteByte(ackOverloaded); err != nil {
					return
				}
				continue
			}
			admPending = true
			admStart = time.Now()
		}
		var err error
		switch op {
		case opFetch:
			err = s.serveFetch(w, key, int(length))
		case opPush:
			err = s.servePush(r, w, key, int(length))
		case opDelete:
			ack := ackOK
			if s.store.Delete(key) != nil {
				s.stats.storeFails.Add(1)
				ack = ackErr
			}
			err = w.WriteByte(ack)
		default:
			// An unknown opcode, or a hello anywhere but at the head of
			// the connection.
			s.stats.badFrames.Add(1)
			return
		}
		if err != nil {
			return
		}
		s.stats.frames.Add(1)
	}
}

// serveFetch answers one fetch in place: its reply — flag, payload,
// trailer — is built in w's free space, which is flushed first only when
// the reply does not fit, and the store copies the blob straight into it.
// A stored blob that is corrupt (bad checksum) or truncated (shorter than
// the read) is answered with an integrity error frame instead of a
// fabricated zero-filled tail; that byte takes the place of the reply
// never committed, so the stream stays in sync.
func (s *Server) serveFetch(w *bufio.Writer, key uint64, length int) error {
	n := 1 + length + crcLen
	if w.Available() < n {
		if err := s.flush(w); err != nil {
			return err
		}
	}
	reply := w.AvailableBuffer()[:n]
	payload := reply[1 : 1+length : 1+length]
	found, err := s.store.Get(key, payload)
	if err != nil {
		if errors.Is(err, remote.ErrSizeMismatch) {
			s.stats.sizeErrs.Add(1)
		} else {
			s.stats.corrupt.Add(1)
		}
		return w.WriteByte(ackCorrupt)
	}
	reply[0] = flagAbsent
	if found {
		reply[0] = flagFound
	}
	binary.BigEndian.PutUint32(reply[1+length:], payloadCRC(payload))
	_, err = w.Write(reply) // a copy onto itself: it commits the reply
	return err
}

// servePush answers one push in place: the whole frame's payload and
// trailer sit in r's buffer (see wireBufSize), where the payload is
// checked against its trailer and stored, and only then consumed.
func (s *Server) servePush(r *bufio.Reader, w *bufio.Writer, key uint64, length int) error {
	frame, err := r.Peek(length + crcLen)
	if err != nil {
		return err
	}
	payload := frame[:length:length]
	ack := ackOK
	switch {
	case binary.BigEndian.Uint32(frame[length:]) != payloadCRC(payload):
		// The payload was damaged in flight. Discard it — storing it
		// would turn transient wire corruption into durable corruption —
		// and tell the client, which retries the (idempotent) push.
		s.stats.wireRejects.Add(1)
		ack = ackCorrupt
	case s.store.Put(key, payload) != nil:
		// The store refused the write (e.g. a durable store whose WAL
		// append failed). Never ack what was not made durable: the
		// client sees a definite error and retries elsewhere.
		s.stats.storeFails.Add(1)
		ack = ackErr
	}
	if _, err := r.Discard(len(frame)); err != nil {
		return err
	}
	return w.WriteByte(ack)
}

// Close shuts the listener and all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown drains the server gracefully: stop accepting new connections,
// let every in-flight request finish and be acked, then hang up. Handlers
// parked in a read for the next request are unblocked by a short read
// deadline; grace bounds the whole drain — connections still busy when it
// expires are closed hard (exactly what Close would have done). Returns
// nil if the drain completed within grace, ErrClosed if the server was
// already closed, and an error describing the forced close otherwise.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock handlers idling in ReadFull on the next header: a short read
	// deadline turns the park into an error return. Half the grace leaves
	// the second half for genuinely in-flight frames to finish writing.
	wake := time.Now().Add(grace / 2)
	if grace <= 0 {
		wake = time.Now()
	}
	for c := range s.conns {
		c.SetReadDeadline(wake)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var timeout <-chan time.Time
	if grace > 0 {
		tm := time.NewTimer(grace)
		defer tm.Stop()
		timeout = tm.C
	} else {
		ch := make(chan time.Time)
		close(ch)
		timeout = ch
	}
	select {
	case <-done:
		return nil
	case <-timeout:
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		if n > 0 {
			return fmt.Errorf("fabric: shutdown grace expired, closed %d connections hard", n)
		}
		return nil
	}
}

// dialOptions tunes a TCPTransport's fault handling. Dial runs every
// transport a binary makes on the zero value; the tests that time safety
// properties shorten the backoffs through export_test.go.
type dialOptions struct {
	// Retry paces a connection's attempts after a failure; zero fields
	// take the defaults (1ms base backoff, 50ms cap).
	Retry retryPolicy
	// OpTimeout is the per-operation deadline covering the request write
	// and response read of one attempt (default 2s).
	OpTimeout time.Duration
	// Seed seeds the deterministic backoff jitter (see retryPolicy). The
	// zero seed selects sim.NewRNG's fixed default, so the schedule is
	// reproducible even when unset.
	Seed uint64
}

// TCPTransport is an ErrorTransport backed by real TCP connections to a
// Server: its methods make one attempt each (see do), surface typed errors,
// apply per-operation deadlines, pace a failing connection with
// deterministic-jitter backoff, and transparently reconnect after a
// connection is marked dead. Every payload crossing the wire carries a
// CRC32-C trailer; corruption in flight is detected on receipt
// (ErrIntegrity, counted in Stats.ChecksumFaults) and reported, never
// handed to the caller as data; re-issuing it is the far engine's call.
//
// It is safe for concurrent use, and concurrent callers do not wait for
// each other: an operation checks a connection out of a LIFO stack of idle
// ones (dialing a new one, up to maxConns, when the stack is empty), runs
// its attempt on it, and puts it back. One caller keeps reusing
// one socket; N callers get N sockets and N Server.handle goroutines. mu
// is a leaf lock over the stack and the peer identity below; it is never
// held across I/O, a backoff sleep or a dial.
//
// Speculative fetches do not take that path: StartFetch (stream.go) writes
// them ahead on one further connection, the prefetch stream, which a
// transport that prefetches keeps checked out for good — such a transport
// serves 15 concurrent demand callers without waiting, not 16.
type TCPTransport struct {
	addr      string
	policy    retryPolicy
	opTimeout time.Duration
	stats     Stats
	dial      func(network, addr string, timeout time.Duration) (net.Conn, error) // net.DialTimeout, or a test's counting dialer

	closed atomic.Bool // set under mu (so cond waiters see it), read anywhere

	mu          sync.Mutex
	cond        sync.Cond   // callers waiting for a connection at the cap; L is &mu
	conns       []*wireConn // every connection made, idle or checked out (for Close)
	idle        []*wireConn // LIFO stack of the ones not checked out
	peerGen     uint64      // restart generation from the newest hello reply (0 = never seen)
	peerDurable bool        // the peer advertised a durable (recovered) store

	rngMu sync.Mutex // leaf lock: jitter draws stay one sequence per transport
	rng   *sim.RNG

	stream fetchStream // the prefetch stream (stream.go); its own mutex, taken before mu
}

// maxConns caps a transport's connections; callers beyond it wait for one
// to be returned (counted in Stats.ConnWaits).
const maxConns = 16

// wireConn is one connection and everything only its current holder
// touches. It outlives its socket: markDead clears conn, the next attempt
// re-dials into the same buffers. conn is written under the transport's mu
// (Close reads it from another goroutine); the holder reads it freely.
type wireConn struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	helloed bool     // the socket's hello has been answered
	dl      Deadline // deadline of the operation holding the connection (zero = none)
	dialed  bool     // has been connected before: the next dial is a reconnect
	fails   int      // consecutive failed attempts: the next one is paced
	// Header and trailer scratch: as stack arrays they escape through
	// io.Writer/io.ReadFull, one heap allocation per frame each.
	hdr [hdrLen]byte
	crc [crcLen]byte
}

// PeerIdentity reports the restart generation the peer advertised in its
// last hello (0 when it never advertised one) and whether it declared its
// store durable. The values persist across reconnects: they describe the
// peer as of the most recent completed hello on any connection. It never
// waits on I/O.
func (t *TCPTransport) PeerIdentity() (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peerGen, t.peerDurable
}

// Dial connects to a Server at addr with default fault-handling options.
func Dial(addr string) (*TCPTransport, error) {
	return dialWith(addr, dialOptions{})
}

// dialWith connects to a Server at addr with explicit fault-handling
// options. The initial dial is not retried: an unreachable server at
// construction time is a configuration error the caller should see
// immediately. Once constructed, the transport survives server restarts by
// reconnecting on demand (each new socket opens with its own hello).
func dialWith(addr string, opts dialOptions) (*TCPTransport, error) {
	t := &TCPTransport{
		addr:      addr,
		policy:    opts.Retry.withDefaults(),
		opTimeout: opts.OpTimeout,
		dial:      net.DialTimeout,
		rng:       sim.NewRNG(opts.Seed),
	}
	t.cond.L = &t.mu
	t.stream.t = t
	if t.opTimeout <= 0 {
		t.opTimeout = 2 * time.Second
	}
	c, err := t.checkout()
	if err == nil {
		err = t.ensureConn(c)
		t.release(c)
	}
	if err != nil {
		return nil, fmt.Errorf("fabric: dial %s: %w", addr, err)
	}
	return t, nil
}

// Stats exposes the transport's fault-handling counters.
func (t *TCPTransport) Stats() *Stats { return &t.stats }

// checkout hands the caller exclusive use of a connection until release:
// the most recently returned idle one, else a new (not yet dialed) one
// while under the cap, else it waits for a release.
func (t *TCPTransport) checkout() (*wireConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for waited := false; ; waited = true {
		if t.closed.Load() {
			return nil, permanent(ErrClosed)
		}
		if n := len(t.idle); n > 0 {
			c := t.idle[n-1]
			t.idle = t.idle[:n-1]
			return c, nil
		}
		if len(t.conns) < maxConns {
			c := &wireConn{r: bufio.NewReaderSize(nil, wireBufSize), w: bufio.NewWriterSize(nil, wireBufSize)}
			t.conns = append(t.conns, c)
			return c, nil
		}
		if !waited {
			t.stats.connWaits.Add(1)
		}
		t.cond.Wait()
	}
}

// release returns a checked-out connection, dead or alive, to the stack.
func (t *TCPTransport) release(c *wireConn) {
	c.dl = Deadline{}
	t.mu.Lock()
	if t.closed.Load() {
		t.drop(c) // Close only interrupted the socket; tearing it down is the holder's job
	} else {
		t.idle = append(t.idle, c)
	}
	t.mu.Unlock()
	t.cond.Signal()
}

// drop closes c's socket, if it has one, so that its next use re-dials.
// Caller holds t.mu and either holds c or knows it idle.
func (t *TCPTransport) drop(c *wireConn) {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.helloed = nil, false
		t.stats.openConns.Add(-1)
	}
}

// markDead is drop for c's holder, called after any mid-operation error: a
// partially consumed response would otherwise desynchronize the stream and
// every later reply would be misparsed against the wrong request.
func (t *TCPTransport) markDead(c *wireConn) {
	t.mu.Lock()
	t.drop(c)
	t.mu.Unlock()
}

// ensureConn re-dials if c has no live socket; the new socket's hello is
// still to be sent. The first dial of a wireConn grows the pool; every
// later one replaces a socket that died and counts as a reconnect.
func (t *TCPTransport) ensureConn(c *wireConn) error {
	if c.conn != nil {
		return nil
	}
	conn, err := t.dial("tcp", t.addr, t.opTimeout)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		conn.Close()
		return permanent(ErrClosed)
	}
	c.conn = conn
	t.mu.Unlock()
	c.r.Reset(conn)
	c.w.Reset(conn)
	t.stats.openConns.Add(1)
	if c.dialed {
		t.stats.reconnects.Add(1)
	}
	c.dialed = true
	return nil
}

// ensureHello opens a freshly dialed connection with the hello exchange. It
// runs lazily on the first operation over each socket (not at dial time), so
// dialWith stays a pure reachability check and handshake failures flow
// through the per-operation attempt and typed-error machinery: a peer that
// hangs up mid-hello is an ordinary retryable connection error, one that
// answers anything but this version's hello ack a permanent ErrProtocol.
func (t *TCPTransport) ensureHello(c *wireConn) error {
	if c.helloed {
		return nil
	}
	c.conn.SetDeadline(time.Now().Add(t.opTimeout))
	c.hdr[0] = opHello
	binary.BigEndian.PutUint64(c.hdr[1:9], helloMagic)
	binary.BigEndian.PutUint32(c.hdr[9:13], protoVersion)
	_, err := c.w.Write(c.hdr[:helloLen])
	if err == nil {
		err = c.w.Flush()
	}
	// The version is checked before the rest of the reply is read: only
	// this version is known to send one of this length.
	reply := c.hdr[:helloReplyLen]
	if err == nil {
		_, err = io.ReadFull(c.r, reply[:2])
	}
	if err == nil && (reply[0] != ackHello || reply[1] != protoVersion) {
		err = permanent(fmt.Errorf("%w: hello answered %#x, version %d", ErrProtocol, reply[0], reply[1]))
	}
	if err == nil {
		_, err = io.ReadFull(c.r, reply[2:])
	}
	if err != nil {
		t.markDead(c)
		return err
	}
	c.helloed = true
	t.mu.Lock()
	t.peerDurable = reply[2]&helloGenDurable != 0
	t.peerGen = binary.BigEndian.Uint64(reply[3:])
	t.mu.Unlock()
	return nil
}

// do runs one operation (ahead, code, key, buf: see exchange) on a
// checked-out connection, bounded by the operation deadline. It makes one
// attempt: whether a failed operation is tried again is the caller's
// decision (far.Engine's, under its retry budget). The one exception is a
// socket that came off the idle stack live and helloed and then failed at
// the connection level: the peer closed it while it sat idle (a server
// restart), so the operation never reached a live peer, and it is sent once
// more on a fresh socket. That resend draws no retry-budget token and is
// counted in Stats.Retries; a socket that dies inside the operation that
// used it gets none. No transport-wide lock is held across the attempt, so
// one caller's pacing or redial delays nobody else, and Close interrupts it
// by closing its socket.
func (t *TCPTransport) do(dl Deadline, ahead []Push, code byte, key uint64, buf []byte) (bool, error) {
	c, err := t.checkout()
	if err != nil {
		return false, err
	}
	defer t.release(c)
	c.dl = dl
	if len(ahead) > 0 {
		t.stats.carried.Add(uint64(len(ahead)))
		t.stats.carries.Add(1)
	}
	idle := c.helloed
	found, err := t.attempt(c, ahead, code, key, buf)
	if idle && errors.Is(err, ErrRemoteUnavailable) && !t.closed.Load() {
		t.stats.retries.Add(1)
		found, err = t.attempt(c, ahead, code, key, buf)
	}
	if err != nil && t.closed.Load() {
		// Whatever the interrupted attempt reported, the cause is Close.
		return false, permanent(ErrClosed)
	}
	return found, err
}

// attempt is one try of an operation on c: a re-dial and hello if c has no
// live socket, then the exchange. Pushes written ahead belong to the
// operation: the attempt succeeds only when every frame of it did, and a
// re-issue re-sends every one of them (pushes are idempotent
// last-writer-wins). Every error is classified into the typed taxonomy,
// and one that leaves the stream unframed marks the connection dead
// (forcing a clean reconnect); a one-byte refusal is a whole reply, and the
// connection that delivered it is kept.
//
// Pacing lives here, on the socket, because this is where wall time
// passes: an attempt on a connection whose last attempt failed first
// sleeps the retry policy's backoff for its failure streak — an overload
// reject and a dead peer alike — clamped to the remaining deadline; a
// success resets the streak. An expired deadline fails the attempt with
// ErrDeadlineExceeded before it starts, each socket deadline is clamped to
// the remaining budget, and a result that arrives past the deadline is
// reported the same way (the caller never consumes it).
func (t *TCPTransport) attempt(c *wireConn, ahead []Push, code byte, key uint64, buf []byte) (found bool, err error) {
	if c.fails > 0 {
		t.rngMu.Lock()
		d := t.policy.backoff(c.fails, t.rng)
		t.rngMu.Unlock()
		if !c.dl.IsZero() {
			if rem := time.Duration(c.dl.RemainingNanos()); d > rem {
				d = rem
			}
		}
		time.Sleep(d)
	}
	if c.dl.Expired() {
		err = errDeadline("budget exhausted before attempt")
	} else if err = t.ensureConn(c); err == nil {
		err = t.ensureHello(c)
	}
	if err == nil {
		to := t.opTimeout
		if !c.dl.IsZero() {
			if rem := time.Duration(c.dl.RemainingNanos()); rem < to {
				to = rem
			}
		}
		c.conn.SetDeadline(time.Now().Add(to))
		var inSync bool
		if found, inSync, err = c.exchange(ahead, code, key, buf); err == nil {
			if !c.dl.Expired() {
				c.fails = 0
				return found, nil
			}
			// The exchange succeeded but past its budget: the result
			// must not be consumed. The connection itself is healthy.
			err = errDeadline("completed past deadline")
		} else if !inSync {
			t.markDead(c)
		}
	}
	c.fails++
	err = classify(err)
	t.stats.record(err)
	if errors.Is(err, ErrRemoteUnavailable) || isShortRead(err) {
		t.mu.Lock()
		t.dropIdle()
		t.mu.Unlock()
	}
	return false, err
}

// writeHeader appends one request header to c's write buffer. It carries
// the remaining budget of the operation holding c (0 = none), so the server
// can shed a request it cannot finish in time.
func (c *wireConn) writeHeader(code byte, key uint64, length int) error {
	c.hdr[0] = code
	binary.BigEndian.PutUint64(c.hdr[1:9], key)
	binary.BigEndian.PutUint32(c.hdr[9:13], uint32(length))
	binary.BigEndian.PutUint64(c.hdr[13:], c.dl.RemainingNanos())
	_, err := c.w.Write(c.hdr[:])
	return err
}

// writePush appends one whole push frame — header, payload, CRC trailer —
// to c's write buffer.
func (c *wireConn) writePush(key uint64, src []byte) error {
	if err := c.writeHeader(opPush, key, len(src)); err != nil {
		return err
	}
	if _, err := c.w.Write(src); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(c.crc[:], payloadCRC(src))
	_, err := c.w.Write(c.crc[:])
	return err
}

// exchange is one trip to the server on c, with the socket deadline already
// set. Its own request is code: buf is the destination of an opFetch, the
// source of an opPush, nil for opDelete; found is meaningful for opFetch
// only. The pushes in ahead are written in front of it into the same
// buffer and the lot is flushed once; the server answers a connection in
// order (and holds an ack back while the next request is already in its
// buffer), so their acks are read first, in order, and then the reply.
//
// The exchange fails as a whole — the caller re-sends all of it — and after
// an error inSync reports whether c is still framed. A one-byte refusal of
// one frame leaves the rest readable, and they are read: a shed frame in
// the middle must not cost the connection. The first refusal is then the
// error. One that leaves the stream untrustworthy (readFetchReply) ends
// the exchange at once and is the one reported.
//
// Passing the operation as plain values (not a closure over the caller's
// buffers) keeps a round trip free of heap allocations.
func (c *wireConn) exchange(ahead []Push, code byte, key uint64, buf []byte) (found, inSync bool, err error) {
	for i := range ahead {
		if err := c.writePush(ahead[i].Key, ahead[i].Src); err != nil {
			return false, false, err
		}
	}
	if code == opPush {
		err = c.writePush(key, buf)
	} else {
		err = c.writeHeader(code, key, len(buf))
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return false, false, err
	}
	var refused error
	for range ahead {
		if inSync, err := c.readAck("push"); err != nil {
			if !inSync {
				return false, false, err
			}
			if refused == nil {
				refused = err
			}
		}
	}
	switch code {
	case opPush:
		inSync, err = c.readAck("push")
	case opDelete:
		inSync, err = c.readAck("delete")
	default:
		found, inSync, err = c.readFetchReply(buf)
	}
	if refused != nil && inSync {
		return false, true, refused
	}
	return found, inSync, err
}

// readFetchReply reads the reply to one fetch request into dst. It is the
// only reader of fetch replies: a blocking exchange and the prefetch stream
// both come through here, so every reply meets the same flag switch,
// length and CRC32-C check. After an error, inSync reports whether the
// connection is still framed: a one-byte refusal is a whole reply and the
// next one follows it, while an I/O error, an unknown flag or a payload
// that fails its checksum leaves the rest of the stream untrustworthy.
func (c *wireConn) readFetchReply(dst []byte) (found, inSync bool, err error) {
	flag, err := c.r.ReadByte()
	if err != nil {
		return false, false, err
	}
	switch flag {
	case flagAbsent, flagFound:
	case ackOverloaded:
		// Admission control shed the request before service: pure
		// backpressure. No payload follows, the stream stays in
		// sync, and the engine may re-issue it without a budget token.
		return false, true, fmt.Errorf("%w: fetch shed", ErrOverloaded)
	case ackErr:
		return false, true, permanent(fmt.Errorf("%w: server rejected fetch", ErrProtocol))
	case ackCorrupt:
		// The blob is corrupt at rest on the node: retrying cannot
		// help, so the error is permanent.
		return false, true, permanent(fmt.Errorf("%w: server reports blob corrupt or truncated", ErrIntegrity))
	default:
		return false, false, permanent(fmt.Errorf("%w: fetch flag %#x", ErrProtocol, flag))
	}
	if _, err := io.ReadFull(c.r, dst); err != nil {
		return false, false, err
	}
	if _, err := io.ReadFull(c.r, c.crc[:]); err != nil {
		return false, false, err
	}
	if binary.BigEndian.Uint32(c.crc[:]) != payloadCRC(dst) {
		// In-flight corruption: the connection's framing may also be
		// suspect, so the conn is torn down (the caller's error path)
		// and a retry re-reads over a fresh one.
		return false, false, fmt.Errorf("%w: fetch payload CRC mismatch", ErrIntegrity)
	}
	return flag == flagFound, true, nil
}

// TryFetchUntil implements ErrorTransport: a fetch bounded end to end by
// dl. The remaining budget rides in each request header, bounds the
// socket deadline, and clamps the pacing sleep; an operation whose
// budget runs out — or whose result arrives late — fails with
// ErrDeadlineExceeded and the late result is discarded.
func (t *TCPTransport) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	if len(dst) > MaxPayload {
		return false, fmt.Errorf("%w: fetch of %d bytes", ErrPayloadTooLarge, len(dst))
	}
	return t.do(dl, nil, opFetch, key, dst)
}

// TryPushUntil implements ErrorTransport (see TryFetchUntil).
func (t *TCPTransport) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	if len(src) > MaxPayload {
		return fmt.Errorf("%w: push of %d bytes", ErrPayloadTooLarge, len(src))
	}
	_, err := t.do(dl, nil, opPush, key, src)
	return err
}

// TryDeleteUntil implements ErrorTransport (see TryFetchUntil).
func (t *TCPTransport) TryDeleteUntil(key uint64, dl Deadline) error {
	_, err := t.do(dl, nil, opDelete, key, nil)
	return err
}

// TryFetchAfterPushes implements PushCarrier: the pushes and the fetch are
// one exchange on one connection — one write, their acks and the reply read
// in order — one attempt under dl (see do and exchange).
func (t *TCPTransport) TryFetchAfterPushes(pushes []Push, key uint64, dst []byte, dl Deadline) (bool, error) {
	if err := checkPushSizes(pushes); err != nil {
		return false, err
	}
	if len(dst) > MaxPayload {
		return false, fmt.Errorf("%w: fetch of %d bytes", ErrPayloadTooLarge, len(dst))
	}
	return t.do(dl, pushes, opFetch, key, dst)
}

// TryPushAll implements PushCarrier: one exchange whose own request is the
// last push, the others written ahead of it.
func (t *TCPTransport) TryPushAll(pushes []Push, dl Deadline) error {
	if err := checkPushSizes(pushes); err != nil || len(pushes) == 0 {
		return err
	}
	last := pushes[len(pushes)-1]
	_, err := t.do(dl, pushes[:len(pushes)-1], opPush, last.Key, last.Src)
	return err
}

func checkPushSizes(pushes []Push) error {
	for i := range pushes {
		if n := len(pushes[i].Src); n > MaxPayload {
			return fmt.Errorf("%w: push of %d bytes", ErrPayloadTooLarge, n)
		}
	}
	return nil
}

// readAck reads the one-byte answer to a push or a delete. As for
// readFetchReply, inSync reports after an error whether the connection is
// still framed: the three refusals are whole replies and the next one
// follows; an I/O error or an unknown byte leaves the rest untrustworthy.
func (c *wireConn) readAck(op string) (inSync bool, err error) {
	ack, err := c.r.ReadByte()
	if err != nil {
		return false, err
	}
	switch ack {
	case ackOK:
		return true, nil
	case ackOverloaded:
		// Backpressure: the request was shed before service (a shed push
		// was consumed and discarded, never stored). Re-issued without a
		// budget token; see readFetchReply's flag handling.
		return true, fmt.Errorf("%w: %s shed", ErrOverloaded, op)
	case ackErr:
		return true, permanent(fmt.Errorf("%w: server rejected %s", ErrProtocol, op))
	case ackCorrupt:
		// The server saw a damaged CRC trailer: the payload was
		// corrupted in flight and discarded. Retrying re-sends the
		// intact source buffer, so this is retryable.
		return true, fmt.Errorf("%w: server rejected %s payload CRC", ErrIntegrity, op)
	default:
		return false, permanent(fmt.Errorf("%w: %s ack %#x", ErrProtocol, op, ack))
	}
}

// dropIdle drops the idle connections' sockets (they stay on the stack).
// When the peer hangs up on one connection the others are as dead, and
// finding that out one checkout at a time would cost a failed attempt each
// (and the engine a retry-budget token each). Caller holds t.mu.
func (t *TCPTransport) dropIdle() {
	for _, c := range t.idle {
		t.drop(c)
	}
}

// Close marks the transport closed and closes every socket, idle or
// checked out, without waiting for the holders: an operation blocked in
// I/O fails at once and, like all later operations, reports ErrClosed.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	t.closed.Store(true)
	t.cond.Broadcast()
	t.dropIdle()
	for _, c := range t.conns {
		if c.conn != nil {
			c.conn.Close() // interrupts the holder, whose release tears it down
		}
	}
	t.mu.Unlock()
	// The prefetch stream never releases its connection. If it is idle,
	// fail its outstanding tickets and tear the socket down here; if it is
	// mid-operation (TryLock fails) that operation has just been
	// interrupted and does the same on its way out. Never a blocking Lock:
	// Close does not wait behind a holder.
	if s := &t.stream; s.mu.TryLock() {
		if s.c != nil {
			s.fail(ErrClosed)
		}
		s.mu.Unlock()
	}
	return nil
}

var _ ErrorTransport = (*TCPTransport)(nil)
var _ AsyncFetcher = (*TCPTransport)(nil)
var _ PushCarrier = (*TCPTransport)(nil)
var _ BlobStore = (*remote.Store)(nil)
var _ BlobStore = (*remote.DurableStore)(nil)
