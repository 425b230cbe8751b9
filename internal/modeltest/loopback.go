package modeltest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// loopback is the world of a real memory node: a fabric.Server on
// 127.0.0.1, composed as cmd/fmserver composes it — admission on, a durable
// store's generation advertised — over a remote.Store, or a
// remote.DurableStore (FsyncNever, compacting every few KiB) around one.
// The runtime talks to it through the fabric.TCPTransport that fabric.Dial
// returns, unwrapped: the far engine finds its write-behind window
// (fabric.PushCarrier) and fabric.StartFetch its prefetch stream
// (fabric.AsyncFetcher) by type assertion, and a wrapper would turn both
// off.
//
// The faults are injected at the server's end of each connection (conn),
// which parses the client's frames and the server's replies. Each
// connection draws from its own RNG, seeded by the schedule's seed and the
// connection's number, once per request frame — not per Read — so that a
// trace replays and shrinks. The schedule reads, in this world:
//
//   - DropRate cuts the connection at a frame: inside it, so the server
//     never applies it, or right after it, so the server applies it and
//     every reply it then owes on the connection is lost.
//   - CorruptRate flips one payload byte in flight: of a push, whose
//     trailer the server then refuses with one byte, or of a fetch's reply,
//     which the client refuses by tearing the connection down.
//   - Every OutageEvery-th op takes the node out of service, and it stays
//     out until the runtime has made OutageLen failed wire attempts against
//     it, or until quiesce; then it restarts between ops on the same
//     address. Out of service, a plain node is down: the server is shut
//     down, and the world, which keeps the listener, hangs up on every new
//     connection before its hello, so no dial waits in a backlog. A durable
//     node is down likewise, or (a coin per outage) a crash point is armed
//     at a drawn WAL offset, and once it fires the node stays up crashed: it
//     refuses every mutation with one byte, serves every read, and draws no
//     cut or corruption. A plain node comes back with its memory; a durable
//     one goes down through Crash and recovers from its directory,
//     compressed at rest on every other boot.
//   - One frame in eight arrives in pieces. That is no fault: a split
//     frame must be served as if it had arrived whole.
//   - OverloadEvery is not injected: a shed cannot be forced through a real
//     admission queue. A per-op deadline of simulated cycles would be a
//     socket deadline of microseconds, so no deadline schedule runs here.
//
// The far engine's fault counts reconcile with these rules. A client writes
// an exchange — the pushes its write-behind window carries and its own
// request — in one write, and reads every reply before it writes again; on
// loopback one such write arrives whole, so one read at the server's end
// is one exchange. An exchange that meets a cut or a corrupted reply is one
// failed attempt, and the engine counts every request in it. A refusal (a
// CRC, or a crashed store's) of a push carried ahead of a fetch fails the
// carried pushes alone, each counted, and the fetch is served; any other
// refusal fails its own request. A cut exchange that is not the first on
// its connection found a socket that sat idle and helloed: the transport
// sends it once more on a fresh connection, counted in Stats.Retries and
// never by the engine. While the node is down, each connection it hangs up
// on is one failed attempt, which the engine counts with the pushes the
// attempt carried; the first attempt on an idle socket the shutdown closed
// may be resent once. The prefetch stream — the connection whose first
// request is the world's stream probe — is never cut or corrupted, but an
// outage cuts it and fails every ticket outstanding on it; each counts
// when the runtime collects it, so until the runtime is quiet the count
// lies between the exchanges' and that plus the stream tickets no whole
// reply answered. A restart's own cuts are absorbed by the world's probes
// right after it, a demand fetch (the transport's one resend) and a stream
// fetch. The bound on wire requests counts the requests of every exchange
// but the stream's and a resent one.
//
// Between the server and the store sits the history (a BlobStore): it
// records, in order, every Put and Delete the store accepted, as the blobs
// their replay leaves, which is what the node must hold after a recovery.
type loopback struct {
	r     *Rig
	rng   *sim.RNG // outages and crash points
	ln    net.Listener
	addr  string
	dir   string // the durable store's data directory
	t     *fabric.TCPTransport
	srv   *fabric.Server
	mem   *remote.Store
	ds    *remote.DurableStore
	pumps sync.WaitGroup // the accept loop and every connection's pump

	gen        uint64 // the generation the node advertises
	compressed bool   // the store holds blobs compressed at rest
	compacted  bool   // a durable store ever wrote a snapshot
	closed     bool   // shut down for good

	mu       sync.Mutex // everything below, which the server's goroutines keep
	l        *listener  // the server's
	blobs    map[uint64][]byte
	damaged  map[uint64][]byte // the last payload of each key damaged in flight
	stored   error             // the store accepted a damaged payload, or compacted badly
	armed    int64             // the armed crash point, in WAL bytes; -1 for none
	crashed  bool              // a durable store refused a mutation with ErrCrashed ...
	torn     bool              // ... at a crash point inside its log record
	down     bool              // the node is down: every new connection is hung up on
	seen     int               // the last op between ran before
	attempts int               // failed wire attempts against the node out of service
	carried  uint64            // the transport's carried pushes when the node went down
	conns    uint64
	owed     uint64 // fault counts the far engine owes the exchanges
	resends  uint64 // resends the transport owes them
	reqs     uint64 // requests of exchanges not resent, off the stream
	corrupt  uint64
	answered uint64 // the runtime's stream tickets a whole reply answered
	probes   uint64 // stream tickets of the world's own
	retried  uint64 // transport resends the world's probes, or an outage, caused
	failed   uint64 // the runtime's stream tickets failed by outages so far
	reached  map[string]bool
}

// The world's own probe keys, far outside any heap.
const (
	demandProbe = 1 << 62
	streamProbe = demandProbe + 1
)

// The loopback world's states: every config owes the first two, a faulty
// one the next eight, a durable one the last five (the harness notes the
// outages' own, see Served).
var loopbackStates = []string{
	"push carried ahead of a request", "stream ticket completed",
	"stream ticket failed by a cut", "push applied, its ack cut", "push cut before the server applied it",
	"push refused for its CRC", "fetch reply refused for its CRC", "reconnect", "op failed while the node was down", "reconnect after an outage",
	"recovery from snapshot plus WAL", "torn WAL tail dropped", "compression flipped across a recovery", "generation advanced", "miss served while the node refused writes",
}

// newLoopback starts the node of r's schedule, dials it and finds the
// transport's prefetch stream.
func newLoopback(r *Rig) (*loopback, error) {
	w := &loopback{r: r, rng: sim.NewRNG(r.sched.Faults.Seed), mem: remote.NewStore(), armed: -1,
		blobs: map[uint64][]byte{}, damaged: map[uint64][]byte{}, reached: map[string]bool{}}
	var err error
	if r.sched.node == durableNode {
		if w.dir, err = os.MkdirTemp("", "modeltest-node-"); err == nil {
			err = w.recover()
		}
	}
	if err == nil {
		w.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		w.closed = true
		return w, err
	}
	w.addr = w.ln.Addr().String()
	w.pumps.Add(1)
	go w.accept()
	w.serve()
	if w.t, err = fabric.Dial(w.addr); err != nil {
		return w, err
	}
	return w, w.probeStream()
}

// recover opens the durable store on the data directory, around a fresh
// store of the other kind.
func (w *loopback) recover() (err error) {
	if w.compressed = !w.compressed && w.ds != nil; w.compressed {
		w.mem = remote.NewCompressedStore()
	} else {
		w.mem = remote.NewStore()
	}
	w.ds, err = remote.Durable(w.mem, remote.DurableConfig{Dir: w.dir, Fsync: remote.FsyncNever, SnapshotEvery: 4 << 10})
	if err == nil {
		w.gen, w.armed, w.crashed = w.ds.Generation(), -1, false
	}
	return err
}

// serve brings up a server of the store, through the history, behind the
// world's listener.
func (w *loopback) serve() {
	srv := fabric.NewServer(history{w})
	if w.ds != nil {
		srv.SetGeneration(w.ds.Generation(), true)
	}
	srv.EnableAdmission(fabric.AdmissionConfig{})
	l := &listener{ch: make(chan net.Conn), done: make(chan struct{}), addr: w.ln.Addr()}
	w.mu.Lock()
	w.srv, w.l, w.down = srv, l, false
	w.mu.Unlock()
	srv.Serve(l)
}

// accept hands every connection the listener accepts to the server as a
// conn, or, while the node is down, hangs up on it: one failed attempt of
// the runtime's, which the engine counts.
func (w *loopback) accept() {
	defer w.pumps.Done()
	for {
		tcp, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.down {
			w.attempts++
			w.owed++
			w.mu.Unlock()
			tcp.Close()
			continue
		}
		w.conns++
		c := &conn{Conn: tcp, w: w, rng: sim.NewRNG(w.r.sched.Faults.Seed<<20 + w.conns)}
		l := w.l
		w.mu.Unlock()
		c.cond.L = &c.mu
		w.pumps.Add(1)
		go c.pump()
		select {
		case l.ch <- c:
		case <-l.done:
			c.Close()
		}
	}
}

func (w *loopback) transport() fabric.ErrorTransport { return w.t }

func (w *loopback) faults() (lo, hi uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lo = w.owed
	if w.down {
		lo += w.t.Stats().CarriedPushes() - w.carried
	}
	return lo, lo + w.t.Stats().PipelinedFetches() - w.probes - w.answered
}

func (w *loopback) requests() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reqs
}

func (w *loopback) corruptions() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.corrupt
}

// outage reports the node's state: it goes out of service only between
// ops, but for a crash point that fires, so an outage that begins inside
// an op shows as crashed after it.
func (w *loopback) outage() (down, crashed bool, fails uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.down, w.crashed, 0
}

// peek reads key's blob from the store, which must be what the history of
// accepted mutations left there.
func (w *loopback) peek(key uint64, dst []byte) (bool, error) {
	found, err := w.mem.Get(key, dst)
	w.mu.Lock()
	want, ok := w.blobs[key]
	w.mu.Unlock()
	if err == nil && (found != ok || ok && !bytes.Equal(dst, want)) {
		err = fmt.Errorf("key %d: the node holds %t, % x…, its history %t, % x…", key, found, dst[:4], ok, want[:min(len(want), 4)])
	}
	return found, err
}

// check holds the transport's resends to the cuts that owe them — while
// the node is down, one more may be the first use of an idle socket the
// shutdown closed — and the store to the pushes damaged in flight, and
// notes the states reached.
func (w *loopback) check() error {
	s := w.t.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.reached["push carried ahead of a request"] = s.CarriedPushes() > 0
	w.reached["stream ticket completed"] = w.answered > 0
	w.reached["reconnect"] = s.Reconnects() > 0
	for i, state := range loopbackStates {
		w.r.Note(state, w.reached[state], i < 2 || i < 10 && w.r.Faulty() || i >= 10 && w.ds != nil && w.r.Faulty())
	}
	if got, want := s.Retries(), w.resends+w.retried; got != want && !(w.down && got == want+1) {
		return errors.Join(w.stored, fmt.Errorf("the transport resent %d times, %d cuts of an idle connection and the world's probes owe %d", got, w.resends, want))
	}
	return w.stored
}

// between takes the node out of service when the schedule says so, and
// brings it back once the runtime has made OutageLen failed attempts
// against it, or before quiesce (i < 0), which also disarms a crash point.
// A durable node going out of service may instead arm a crash point
// somewhere in the next few KiB of its log, and stay up crashed once it
// fires. Run again for the same op, between only brings the node back.
func (w *loopback) between(i int) error {
	if w.closed {
		return nil
	}
	f := w.r.sched.Faults
	w.mu.Lock()
	due := f.OutageEvery > 0 && i > w.seen && i%f.OutageEvery == 0 && !w.down && !w.crashed && w.armed < 0
	back := (w.down || w.crashed) && (i < 0 || w.attempts >= f.OutageLen)
	w.seen = max(w.seen, i)
	if i < 0 && w.ds != nil {
		w.armed = -1
		w.ds.SetCrashPoint(-1)
	} else if due && w.ds != nil && w.rng.Intn(2) == 0 {
		w.armed = w.ds.WALWritten() + 1 + int64(w.rng.Intn(4<<10))
		w.ds.SetCrashPoint(w.armed)
		w.attempts, due = 0, false
	}
	if due {
		w.down, w.attempts, w.carried = true, 0, w.t.Stats().CarriedPushes()
	}
	w.mu.Unlock()
	switch {
	case back:
		return w.restart()
	case due:
		w.srv.Shutdown(0)
	}
	return nil
}

// restart brings the node back on the same address, with its memory
// (plain) or what its directory recovers (durable), checks what it holds,
// and probes the transport back onto it. A node still up (crashed) goes
// down first; then a stream probe started before tells whether the
// stream's ring has a place for the probe after the restart; if not, the
// restart waits for the next op.
func (w *loopback) restart() error {
	buf, first := make([]byte, 8), make([]byte, 8)
	var ticket fabric.Ticket
	w.mu.Lock()
	outage := w.down && w.attempts > 0 // the runtime found the node down
	if !w.down {
		w.mu.Unlock()
		before := w.t.Stats().PipelinedFetches()
		var err error
		if ticket, err = w.t.StartFetch(streamProbe, first); err != nil || w.t.Stats().PipelinedFetches() == before {
			return err // the ring is full: the fallback fetched on the demand path
		}
		w.srv.Shutdown(0) // every handler has returned
		w.mu.Lock()
		w.probes++
	} else {
		// The attempts the node hung up on carried these pushes, and an
		// idle socket's resend, if any, is the outage's.
		w.owed += w.t.Stats().CarriedPushes() - w.carried
		w.retried = w.t.Stats().Retries() - w.resends
	}
	w.mu.Unlock()
	gen := w.gen
	if w.ds != nil {
		w.compacted = w.compacted || w.ds.DurableStats().Snapshots() > 0
		w.ds.Crash()
		old := w.mem
		if err := w.recover(); err != nil {
			return err
		}
		old.Clear() // its blobs are buffer leases
	}
	err := w.recovered(gen)
	w.serve()
	retries, reconnects := w.t.Stats().Retries(), w.t.Stats().Reconnects()
	buf[0] = 1
	if found, perr := w.t.TryFetchUntil(demandProbe, buf, fabric.Deadline{}); perr != nil || found || buf[0] != 0 {
		err = errors.Join(err, fmt.Errorf("the demand probe after a restart: found %t, % x, %v; want an absent key's zeros", found, buf, perr))
	}
	if g, durable := w.t.PeerIdentity(); g != w.gen || durable != (w.ds != nil) {
		err = errors.Join(err, fmt.Errorf("the transport saw generation %d (durable %t) after a restart to %d", g, durable, w.gen))
	}
	w.mu.Lock()
	w.retried += w.t.Stats().Retries() - retries
	w.reached["reconnect after an outage"] = w.reached["reconnect after an outage"] || outage && w.t.Stats().Reconnects() > reconnects
	w.reached["generation advanced"] = w.reached["generation advanced"] || w.gen > gen
	w.mu.Unlock()
	ticket.Wait() // collects every ticket before it, failed or not
	return errors.Join(err, w.probeStream())
}

// probeStream fetches the stream probe on the prefetch stream until one
// succeeds, which it does on a fresh connection: the stream's, from then
// on. Every runtime ticket outstanding before it is then collected, so the
// ones the last outage failed are known.
func (w *loopback) probeStream() error {
	buf := make([]byte, 8)
	for range 3 {
		before := w.t.Stats().PipelinedFetches()
		buf[0] = 1
		ticket, err := w.t.StartFetch(streamProbe, buf)
		found := false
		if err == nil {
			found, err = ticket.Wait()
		}
		if err == nil && (found || buf[0] != 0) {
			return fmt.Errorf("the stream probe found %t, % x; want an absent key's zeros", found, buf)
		}
		w.mu.Lock()
		w.probes += w.t.Stats().PipelinedFetches() - before
		failed := w.t.Stats().PipelinedFetches() - w.probes - w.answered
		w.reached["stream ticket failed by a cut"] = w.reached["stream ticket failed by a cut"] || failed > w.failed
		w.failed = failed
		w.mu.Unlock()
		if err == nil {
			return nil
		}
	}
	return errors.New("the stream probe failed three times")
}

// recovered checks what the node holds after a restart from generation
// gen: every blob the history accepted and nothing else, in bytes at rest
// that agree with it; and for a durable node, a recovery report that says
// what happened to it.
func (w *loopback) recovered(gen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	raw := 0
	for key, want := range w.blobs {
		got := make([]byte, len(want))
		if found, gerr := w.mem.Get(key, got); !found || gerr != nil || !bytes.Equal(got, want) {
			err = errors.Join(err, fmt.Errorf("key %d reads % x… (found %t, %v), its last accepted push % x…", key, got[:min(4, len(got))], found, gerr, want[:min(4, len(want))]))
		}
		raw += len(want)
	}
	switch {
	case w.mem.Len() != len(w.blobs) || w.mem.RawBytes() != uint64(raw):
		err = errors.Join(err, fmt.Errorf("the node holds %d blobs of %d raw bytes, its history %d of %d", w.mem.Len(), w.mem.RawBytes(), len(w.blobs), raw))
	case !w.compressed && w.mem.Bytes() != uint64(raw):
		err = errors.Join(err, fmt.Errorf("a plain store holds %d bytes at rest for %d raw", w.mem.Bytes(), raw))
	}
	if w.ds == nil {
		return err
	}
	if rep := w.ds.Recovery(); rep.TornTail != w.torn || rep.SnapshotLoaded != w.compacted || rep.Generation != gen+1 {
		err = errors.Join(err, fmt.Errorf("recovery %v after generation %d; want a torn tail %t, a snapshot %t", rep, gen, w.torn, w.compacted))
	} else {
		w.reached["recovery from snapshot plus WAL"] = w.reached["recovery from snapshot plus WAL"] || rep.SnapshotLoaded && rep.ReplayedRecords > 1
		w.reached["torn WAL tail dropped"] = w.reached["torn WAL tail dropped"] || rep.TornTail && rep.TruncatedTail > 0
		w.reached["compression flipped across a recovery"] = true
	}
	w.torn = false
	return err
}

// close shuts the node down for good, and releases its blobs and its
// directory.
func (w *loopback) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.t != nil {
		w.t.Close()
	}
	w.srv.Shutdown(0)
	w.ln.Close()
	w.pumps.Wait()
	if w.ds != nil {
		w.ds.Crash()
	}
	w.mem.Clear()
	return os.RemoveAll(w.dir)
}

// history is the node's store as the server sees it, the world recording
// every mutation the store accepts.
type history struct{ w *loopback }

func (h history) node() fabric.BlobStore {
	if h.w.ds != nil {
		return h.w.ds
	}
	return h.w.mem
}

func (h history) Get(key uint64, dst []byte) (bool, error) { return h.node().Get(key, dst) }

func (h history) Put(key uint64, src []byte) error {
	return h.mutate(key, src, func() error { return h.node().Put(key, src) })
}

func (h history) Delete(key uint64) error {
	return h.mutate(key, nil, func() error { return h.node().Delete(key) })
}

// mutate runs one mutation of key — a put of src, or a delete for nil —
// and records it if the store accepted it. A mutation a durable store
// refuses with ErrCrashed marks the node crashed, and torn if the crash
// point fell inside its log record; one after which it compacted must
// leave its log empty.
func (h history) mutate(key uint64, src []byte, f func() error) error {
	w := h.w
	w.mu.Lock()
	defer w.mu.Unlock()
	var before int64
	var snaps uint64
	if w.ds != nil {
		before, snaps = w.ds.WALWritten(), w.ds.DurableStats().Snapshots()
	}
	err := f()
	if d, ok := w.damaged[key]; ok && err == nil && bytes.Equal(d, src) {
		w.stored = errors.Join(w.stored, fmt.Errorf("the store accepted a push of key %d damaged in flight", key))
	}
	if w.ds != nil && w.ds.DurableStats().Snapshots() > snaps && w.ds.WALSize() != 0 {
		w.stored = errors.Join(w.stored, fmt.Errorf("a compaction left %d bytes in the log", w.ds.WALSize()))
	}
	switch {
	case err == nil && src != nil:
		w.blobs[key] = bytes.Clone(src)
	case err == nil:
		delete(w.blobs, key)
	case errors.Is(err, remote.ErrCrashed) && !w.crashed:
		w.crashed, w.torn = true, w.armed > before
	}
	return err
}

// listener is one server's listener: the world's accept loop hands it the
// connections, and closing it leaves the world's listener open.
type listener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
	addr net.Addr
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// conn is the server's end of one connection. A pump reads what the client
// sends, frame by frame, and decides each frame's fault; the server reads
// what the pump lets through, and its replies are parsed on their way out.
// When the server closes it, the connection is half closed, and the pump
// reads on until the client hangs up: the client reads every reply already
// written, and never a reset.
type conn struct {
	net.Conn
	w   *loopback
	rng *sim.RNG

	mu       sync.Mutex
	cond     sync.Cond
	in       [][]byte // what the server is yet to read, a piece a Read
	eof      bool     // once in is empty, the server reads EOF
	cut      bool     // the server's replies are lost from here on
	closed   bool
	deadline bool // a read deadline is set: Shutdown wakes the handler
	stream   bool // the prefetch stream's connection
	helloed  bool
	batches  int     // exchanges seen
	pending  []byte  // bytes of a frame still arriving
	owed     []reply // the replies the server owes, in order
}

// reply is one reply the server owes: to a frame of op with an n-byte
// payload, in exchange ex (nil: the world's own, or the stream's), and
// whether the frame is a push carried ahead of the exchange's fetch.
type reply struct {
	op             byte
	n              int
	key            uint64
	corrupt, ahead bool
	ex             *exchange
}

// exchange is one client write on a connection other than the stream: its
// frames, the first ahead of them pushes carried ahead of a fetch, which
// fail apart from it; and which of the two parts have had their faults
// counted, and whether the exchange met a refusal.
type exchange struct {
	frames, ahead        int
	pushes, own, refused bool
}

// fail counts the faults of the pushes carried ahead, of the rest of the
// exchange (own), or of both: each part once.
func (ex *exchange) fail(w *loopback, pushes, own bool) {
	if pushes && !ex.pushes {
		ex.pushes = true
		w.owed += uint64(ex.ahead)
	}
	if own && !ex.own {
		ex.own = true
		w.owed += uint64(ex.frames - ex.ahead)
	}
}

// Frame layout, as fabric's wire has it: the hello, a request header with
// its op, key and payload length, and a push's payload and CRC trailer.
const (
	helloLen, helloReplyLen, hdrLen, crcLen = 13, 11, 21, 4
	opFetch, opPush                         = 1, 2
	flagAbsent, flagFound, ackOK            = 0, 1, 0xA5
)

func (c *conn) pump() {
	defer c.w.pumps.Done()
	buf := make([]byte, 128<<10)
	for {
		n, err := c.Conn.Read(buf)
		if n > 0 {
			c.arrive(buf[:n])
		}
		if err != nil {
			break
		}
	}
	c.mu.Lock()
	c.eof = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.Conn.Close()
}

// arrive takes one read of the client's bytes: its whole frames are one
// exchange (or the hello, or the stream's next requests), and each frame
// draws its fault.
func (c *conn) arrive(b []byte) {
	c.mu.Lock()
	defer c.cond.Broadcast()
	defer c.mu.Unlock()
	if c.cut || c.closed {
		return // drained
	}
	c.pending = append(c.pending, b...)
	var frames [][]byte
	for len(c.pending) >= hdrLen || !c.helloed && len(c.pending) >= helloLen {
		n := helloLen
		if c.helloed {
			if n = hdrLen; c.pending[0] == opPush {
				n += int(binary.BigEndian.Uint32(c.pending[9:13])) + crcLen
			}
		}
		if len(c.pending) < n {
			break
		}
		if f := c.pending[:n:n]; c.helloed {
			frames = append(frames, f)
		} else {
			c.helloed = true
			c.owed = append(c.owed, reply{n: helloReplyLen})
			c.in = append(c.in, f)
		}
		c.pending = c.pending[n:]
	}
	if len(frames) == 0 {
		return
	}
	c.pending = bytes.Clone(c.pending)
	key := binary.BigEndian.Uint64(frames[0][1:9])
	c.stream = c.stream || c.batches == 0 && key == streamProbe
	var ex *exchange
	if !c.stream && key < demandProbe {
		ex = &exchange{frames: len(frames)}
		if frames[len(frames)-1][0] == opFetch {
			ex.ahead = len(frames) - 1
		}
	}
	first := c.batches == 0
	c.batches++
	w, sched := c.w, c.w.r.sched.Faults
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []byte
	for k, f := range frames {
		r := reply{op: f[0], n: int(binary.BigEndian.Uint32(f[9:13])), key: binary.BigEndian.Uint64(f[1:9]), ex: ex, ahead: ex != nil && k < ex.ahead}
		u := 1.0
		if ex != nil && !w.crashed {
			u = c.rng.Float64()
		}
		switch {
		case u < sched.DropRate: // a cut
			if inside := c.rng.Intn(2) == 0; inside {
				f = f[:1+c.rng.Intn(len(f)-1)]
				w.reached["push cut before the server applied it"] = w.reached["push cut before the server applied it"] || r.op == opPush
			} else {
				w.reached["push applied, its ack cut"] = w.reached["push applied, its ack cut"] || r.op == opPush
			}
			c.in = append(c.in, append(out, f...))
			c.cut, c.eof, ex.pushes, ex.own = true, true, true, true
			if first {
				w.owed += uint64(ex.frames)
				w.reqs += uint64(ex.frames)
			} else {
				w.resends++
			}
			return
		case u < sched.DropRate+sched.CorruptRate && r.op == opPush:
			f = bytes.Clone(f)
			f[hdrLen+c.rng.Intn(r.n)] ^= 0xFF
			w.damaged[r.key] = f[hdrLen : hdrLen+r.n]
			w.corrupt++
			w.reached["push refused for its CRC"] = true
		case u < sched.DropRate+sched.CorruptRate && r.op == opFetch:
			r.corrupt = true
		}
		c.owed = append(c.owed, r)
		if c.rng.Intn(8) == 0 { // in pieces
			k := 1 + c.rng.Intn(len(f)-1)
			c.in = append(c.in, append(out, f[:k]...), f[k:])
			out = nil
		} else {
			out = append(out, f...)
		}
	}
	if len(out) > 0 {
		c.in = append(c.in, out)
	}
	if ex != nil {
		w.reqs += uint64(ex.frames)
	}
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.in) == 0 && !c.eof && !c.closed && !c.deadline {
		c.cond.Wait()
	}
	switch {
	case c.closed:
		return 0, net.ErrClosed
	case len(c.in) > 0:
		n := copy(p, c.in[0])
		if c.in[0] = c.in[0][n:]; len(c.in[0]) == 0 {
			c.in = c.in[1:]
		}
		return n, nil
	case c.deadline:
		return 0, os.ErrDeadlineExceeded
	}
	return 0, io.EOF
}

// Write parses the server's replies against the requests that owe them:
// it corrupts a fetch reply drawn for it, counts a corruption as its
// exchange's failure and a refusal as its part's (and, while the node is
// crashed, as a failed attempt against it), and a stream reply written
// whole as a ticket answered — before the client can read any of them.
func (c *conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut || c.closed {
		return 0, net.ErrClosed
	}
	out, w := b, c.w
	w.mu.Lock()
	for off := 0; off < len(b); {
		if len(c.owed) == 0 {
			w.mu.Unlock()
			return 0, fmt.Errorf("the server wrote %d bytes no request owes", len(b)-off)
		}
		r := c.owed[0]
		c.owed = c.owed[1:]
		n, whole := 1, false
		switch {
		case r.op == 0:
			n = helloReplyLen
		case r.op == opFetch && (b[off] == flagAbsent || b[off] == flagFound):
			n, whole = 1+r.n+crcLen, true
		}
		refused := !whole && r.op != 0 && (r.op == opFetch || b[off] != ackOK)
		switch {
		case r.corrupt && whole:
			if &out[0] == &b[0] {
				out = bytes.Clone(b)
			}
			out[off+1+c.rng.Intn(r.n)] ^= 0xFF
			w.corrupt++
			w.reached["fetch reply refused for its CRC"] = true
			r.ex.fail(w, true, true)
		case refused && r.ex != nil:
			r.ex.fail(w, r.ahead, !r.ahead)
			if w.crashed && !r.ex.refused {
				w.attempts++
			}
			r.ex.refused = true
		}
		if c.stream && whole && r.key != streamProbe {
			w.answered++
		}
		off += n
	}
	w.mu.Unlock()
	return c.Conn.Write(out)
}

// Close half closes the connection: the pump reads on until the client
// hangs up.
func (c *conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.cond.Broadcast()
		c.Conn.(*net.TCPConn).CloseWrite()
	}
	return nil
}

// SetReadDeadline stands for Shutdown's wake-up, the one deadline the
// server sets: it wakes a handler parked in Read, and a zero time rearms
// nothing but clears it.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = !t.IsZero()
	c.cond.Broadcast()
	return nil
}
