package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// keyedStore returns a store holding objs 4 KiB objects with key-encoding
// payloads (version 1), so a reply delivered to the wrong ticket cannot
// pass for the right one.
func keyedStore(tb testing.TB, objs int) *remote.Store {
	tb.Helper()
	store := remote.NewStore()
	buf := make([]byte, 4096)
	for k := 0; k < objs; k++ {
		keyedPayload(buf, uint64(k), 1)
		if err := store.Put(uint64(k), buf); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// serveAndDial serves backing on loopback and dials a transport to it;
// both are closed with the test.
func serveAndDial(tb testing.TB, backing BlobStore) (*Server, *TCPTransport) {
	tb.Helper()
	srv := NewServer(backing)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("ListenAndServe: %v", err)
	}
	tb.Cleanup(func() { srv.Close() })
	tr, err := Dial(addr)
	if err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	tb.Cleanup(func() { tr.Close() })
	return srv, tr
}

// burst is a run of pipelined fetches, one buffer each.
type burst struct {
	keys    []uint64
	bufs    [][]byte
	tickets []Ticket
}

// startBurst issues a fetch of every key, in order, without waiting.
func startBurst(tb testing.TB, tr *TCPTransport, keys ...uint64) *burst {
	tb.Helper()
	b := &burst{keys: keys}
	for _, k := range keys {
		buf := make([]byte, 4096)
		tk, err := tr.StartFetch(k, buf)
		if err != nil {
			tb.Fatalf("StartFetch(%d): %v", k, err)
		}
		b.bufs, b.tickets = append(b.bufs, buf), append(b.tickets, tk)
	}
	return b
}

// wait completes ticket i and checks it: a success must carry key i's own
// payload, and a failure must never be reported found.
func (b *burst) wait(tb testing.TB, i int) error {
	tb.Helper()
	found, err := b.tickets[i].Wait()
	switch {
	case err != nil && found:
		tb.Errorf("ticket %d (key %d) failed with %v and still reports found", i, b.keys[i], err)
	case err == nil && !found:
		tb.Errorf("ticket %d: key %d reported absent", i, b.keys[i])
	case err == nil:
		if perr := checkKeyedPayload(b.bufs[i], b.keys[i], 1); perr != nil {
			tb.Errorf("ticket %d: %v", i, perr)
		}
	}
	return err
}

func seqKeys(from, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(from + i)
	}
	return keys
}

// TestStreamFIFO: replies are matched to tickets by position alone, so
// every ticket must end up with its own key's bytes at any depth, waited on
// in any order; past the ring the fetch is synchronous and the ticket born
// complete.
func TestStreamFIFO(t *testing.T) {
	const objs = 256
	orders := map[string]func(i, n int) int{
		"in order":    func(i, n int) int { return i },
		"reversed":    func(i, n int) int { return n - 1 - i },
		"interleaved": func(i, n int) int { return (i*5 + 3) % n }, // a permutation for n coprime to 5
	}
	for _, depth := range []int{1, 8, StreamRing + 3} {
		for name, order := range orders {
			_, tr := serveAndDial(t, keyedStore(t, objs))
			const rounds = 12
			for r := 0; r < rounds; r++ {
				b := startBurst(t, tr, seqKeys(r*depth%(objs-depth), depth)...)
				for i, tk := range b.tickets {
					if want := i < StreamRing; tk.Pending() != want {
						t.Fatalf("depth %d: ticket %d pending = %v, want %v", depth, i, tk.Pending(), want)
					}
				}
				for i := 0; i < depth; i++ {
					if err := b.wait(t, order(i, depth)); err != nil {
						t.Fatalf("depth %d %s: round %d: %v", depth, name, r, err)
					}
				}
			}
			want := uint64(rounds * min(depth, StreamRing))
			if st := tr.Stats(); st.PipelinedFetches() != want || st.Retries() != 0 || st.Reconnects() != 0 {
				t.Errorf("depth %d %s: pipelined = %d (want %d), retries = %d, reconnects = %d",
					depth, name, st.PipelinedFetches(), want, st.Retries(), st.Reconnects())
			}
		}
	}
}

// TestStreamRefusalsFailOnlyTheirTickets: in the middle of a burst the
// server sheds one request (admission control decides on each pipelined
// request by itself) and finds another's blob corrupt at rest. Each
// one-byte refusal fails its own ticket; the stream stays in sync, the
// connection stays up and every other reply still matches its key.
func TestStreamRefusalsFailOnlyTheirTickets(t *testing.T) {
	store := keyedStore(t, 32)
	srv, tr := serveAndDial(t, store)
	// An admission controller that believes service takes a second sheds
	// whatever carries a shorter deadline; stream requests carry none.
	adm := srv.EnableAdmission(AdmissionConfig{})
	adm.Offer(0, 0)
	adm.Done(uint64(time.Second))
	if !store.FlipByte(5, 100) {
		t.Fatal("FlipByte: key 5 not stored")
	}

	startBurst(t, tr, 31).wait(t, 0) // the stream now has its connection
	s := &tr.stream
	const shed, corrupt = 2, 5
	b := &burst{keys: seqKeys(0, 8)}
	for i, k := range b.keys {
		if i == shed { // give this one request a deadline the server cannot meet
			s.mu.Lock()
			s.c.dl = WallDeadlineAfter(100 * time.Millisecond)
			s.mu.Unlock()
		}
		buf := make([]byte, 4096)
		tk, err := tr.StartFetch(k, buf)
		if err != nil {
			t.Fatalf("StartFetch(%d): %v", k, err)
		}
		b.bufs, b.tickets = append(b.bufs, buf), append(b.tickets, tk)
		s.mu.Lock()
		s.c.dl = Deadline{}
		s.mu.Unlock()
	}
	for i := range b.keys {
		err := b.wait(t, i)
		switch i {
		case shed:
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("shed ticket = %v, want ErrOverloaded", err)
			}
		case corrupt:
			if !errors.Is(err, ErrIntegrity) {
				t.Errorf("ticket of the corrupt blob = %v, want ErrIntegrity", err)
			}
		default:
			if err != nil {
				t.Errorf("ticket %d beside the refusals: %v", i, err)
			}
		}
	}
	if st := tr.Stats(); st.Overloads() != 1 || st.ChecksumFaults() != 1 || st.Reconnects() != 0 {
		t.Errorf("overloads = %d, checksumFaults = %d, reconnects = %d; want 1, 1, 0",
			st.Overloads(), st.ChecksumFaults(), st.Reconnects())
	}
	if ss := srv.Stats(); ss.Sheds() != 1 || ss.CorruptBlobs() != 1 {
		t.Errorf("server sheds = %d, corruptBlobs = %d; want 1, 1", ss.Sheds(), ss.CorruptBlobs())
	}
	b = startBurst(t, tr, seqKeys(8, 8)...)
	for i := range b.keys {
		if err := b.wait(t, i); err != nil {
			t.Errorf("burst after the refusals, ticket %d: %v", i, err)
		}
	}
}

// corruptingConn flips one byte of what it reads: the byte at offset at of
// the connection's inbound stream, on whichever connection first gets that
// far while armed.
type corruptingConn struct {
	net.Conn
	off   int
	at    int
	armed *atomic.Bool
}

func (c *corruptingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if i := c.at - c.off; i >= 0 && i < n && c.armed.CompareAndSwap(true, false) {
		p[i] ^= 0x01
	}
	c.off += n
	return n, err
}

// TestStreamWireCorruptionFailsTheRest: a payload byte of reply k is
// flipped in flight. Its checksum fails, and since the framing behind a
// damaged reply cannot be trusted every ticket from k on fails with
// ErrIntegrity — none of them reported found — as one checksum fault; the
// connection is replaced and the next burst is whole again.
func TestStreamWireCorruptionFailsTheRest(t *testing.T) {
	_, tr := serveAndDial(t, keyedStore(t, 32))
	const k = 3
	var armed atomic.Bool
	armed.Store(true)
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &corruptingConn{Conn: conn, at: helloReplyLen + k*(1+4096+crcLen) + 1 + 700, armed: &armed}, nil
	}
	tr.mu.Lock()
	tr.dropIdle() // the connection Dial made: the stream's must come from the corrupting dialer
	tr.mu.Unlock()

	b := startBurst(t, tr, seqKeys(0, 8)...)
	re := tr.Stats().Reconnects()
	for i := range b.keys {
		err := b.wait(t, i)
		if i < k && err != nil {
			t.Errorf("ticket %d, ahead of the damage: %v", i, err)
		}
		if i >= k && !errors.Is(err, ErrIntegrity) {
			t.Errorf("ticket %d, at or behind the damage = %v, want ErrIntegrity", i, err)
		}
	}
	if armed.Load() {
		t.Fatal("no reply went through the corrupting dialer")
	}
	if got := tr.Stats().ChecksumFaults(); got != 1 {
		t.Errorf("ChecksumFaults = %d for one damaged reply, want 1", got)
	}
	b = startBurst(t, tr, seqKeys(8, 8)...)
	for i := range b.keys {
		if err := b.wait(t, i); err != nil {
			t.Errorf("burst on the replacement connection, ticket %d: %v", i, err)
		}
	}
	if got := tr.Stats().Reconnects() - re; got != 1 {
		t.Errorf("Reconnects grew by %d, want 1: the damaged connection is replaced once", got)
	}
}

// gateStore parks every Get, once armed, until the gate is opened.
type gateStore struct {
	*remote.Store
	armed  atomic.Bool
	parked atomic.Int32
	open   chan struct{}
}

func (s *gateStore) Get(key uint64, dst []byte) (bool, error) {
	if s.armed.Load() {
		s.parked.Add(1)
		<-s.open
	}
	return s.Store.Get(key, dst)
}

// TestStreamServerRestartMidBurst: the server dies with a burst outstanding
// — one request being served, five unsent behind it — and a successor with
// the next durable generation takes its place. Every ticket fails, in
// flight or unsent, all with the one classified error the stream failed
// with; the idle sockets to the dead server go with the stream's, and the
// next demand operation reconnects on its one attempt, with no resend.
func TestStreamServerRestartMidBurst(t *testing.T) {
	store := &gateStore{Store: keyedStore(t, 32), open: make(chan struct{})}
	srv := NewServer(store)
	srv.SetGeneration(1, true)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	startBurst(t, tr, 30).wait(t, 0) // the stream's connection
	buf := make([]byte, 4096)
	mustFetch(t, tr, 31, buf) // and an idle one beside it
	if got := tr.Stats().OpenConns(); got != 2 {
		t.Fatalf("OpenConns = %d before the restart, want 2", got)
	}

	store.armed.Store(true)
	b := startBurst(t, tr, seqKeys(0, 6)...) // 1 flushed alone, 5 unsent behind it
	waitFor(t, "the burst to reach the store", func() bool { return store.parked.Load() > 0 })
	srv.Close()
	store.armed.Store(false)
	close(store.open)
	srv2 := NewServer(store.Store)
	srv2.SetGeneration(2, true)
	if _, err := srv2.ListenAndServe(addr); err != nil {
		t.Fatalf("restart ListenAndServe: %v", err)
	}
	defer srv2.Close()

	var first error
	for i := range b.keys {
		err := b.wait(t, i)
		if !errors.Is(err, ErrRemoteUnavailable) && !errors.Is(err, ErrShortRead) {
			t.Errorf("ticket %d across the restart = %v, want a connection-loss error", i, err)
		}
		if i == 0 {
			first = err
		} else if err == nil || first == nil || err.Error() != first.Error() {
			t.Errorf("ticket %d across the restart = %v, want ticket 0's %v: the stream fails once", i, err, first)
		}
	}
	if got := tr.Stats().OpenConns(); got != 0 {
		t.Errorf("OpenConns = %d after the hang-up, want 0: the idle socket goes with the stream's", got)
	}
	retries := tr.Stats().Retries()
	if !mustFetch(t, tr, 7, buf) {
		t.Errorf("key 7 absent on the restarted server")
	}
	if err := checkKeyedPayload(buf, 7, 1); err != nil {
		t.Error(err)
	}
	if got := tr.Stats().Retries() - retries; got != 0 {
		t.Errorf("the next demand fetch was resent %d times, want 0: its socket was dropped, not left idle", got)
	}
	if gen, durable := tr.PeerIdentity(); gen != 2 || !durable {
		t.Errorf("PeerIdentity = (%d, %v), want the successor's (2, true)", gen, durable)
	}
	b = startBurst(t, tr, seqKeys(8, 8)...)
	for i := range b.keys {
		if err := b.wait(t, i); err != nil {
			t.Errorf("burst to the restarted server, ticket %d: %v", i, err)
		}
	}
}

// TestStreamCloseDuringOutstandingWait: against a server that says hello
// and then nothing, Close returns at once beside a Wait blocked on the
// stream, and that Wait reports ErrClosed at once too, long before the
// stream's socket deadline.
func TestStreamCloseDuringOutstandingWait(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotFetch := make(chan struct{})
	var once sync.Once
	go func() { // black hole: answer the hello, swallow everything after it
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := io.ReadFull(conn, make([]byte, helloLen)); err != nil {
					return
				}
				conn.Write(helloReply(0, false))
				if _, err := io.ReadFull(conn, make([]byte, hdrLen)); err == nil {
					once.Do(func() { close(gotFetch) })
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	tr, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	tk, err := tr.StartFetch(1, make([]byte, 64))
	if err != nil || !tk.Pending() {
		t.Fatalf("StartFetch = pending %v, %v", tk.Pending(), err)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := tk.Wait()
		waitErr <- err
	}()
	select {
	case <-gotFetch:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the server")
	}
	time.Sleep(10 * time.Millisecond) // let Wait park in its read

	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("Close took %v beside an outstanding ticket, want < 200ms", d)
	}
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("outstanding Wait = %v, want ErrClosed", err)
		}
	case <-time.After(200 * time.Millisecond): // well inside the stream's 2s socket deadline: Close cut it
		t.Fatal("Wait still blocked 200ms after Close")
	}
	if _, err := tr.StartFetch(1, make([]byte, 64)); !errors.Is(err, ErrClosed) {
		t.Errorf("StartFetch after Close = %v, want ErrClosed", err)
	}
	if got := tr.Stats().OpenConns(); got != 0 {
		t.Errorf("OpenConns = %d after Close, want 0", got)
	}
}

// TestStreamBesideDemandCallers: eight demand callers and a depth-8 stream
// share one transport. The stream rides its own connection, nobody sees
// another's frame, and the pool stays under its cap.
func TestStreamBesideDemandCallers(t *testing.T) {
	const callers, streamBase, streamObjs = 8, 1 << 30, 64
	store := newRendezvousStore(callers)
	buf := make([]byte, 4096)
	for k := uint64(0); k < streamObjs; k++ {
		keyedPayload(buf, streamBase+k, 1)
		store.Put(streamBase+k, buf)
	}
	srv, tr := serveAndDial(t, store)

	done := make(chan struct{})
	var streamed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const depth = 8
		b := startBurst(t, tr, seqKeys(streamBase, depth)...)
		for i := 0; ; i++ {
			if err := b.wait(t, i%depth); err != nil {
				t.Errorf("stream ticket %d: %v", i, err)
				return
			}
			streamed++
			select {
			case <-done:
				for j := i + 1; j < i+depth; j++ {
					b.wait(t, j%depth)
				}
				return
			default:
			}
			var err error
			b.keys[i%depth] = streamBase + uint64(i+depth)%streamObjs
			if b.tickets[i%depth], err = tr.StartFetch(b.keys[i%depth], b.bufs[i%depth]); err != nil {
				t.Errorf("StartFetch: %v", err)
				return
			}
		}
	}()
	runMixedCallers(t, tr, callers, 200, nil)
	close(done)
	wg.Wait()

	if streamed < 8 {
		t.Errorf("the stream completed %d fetches beside the demand callers", streamed)
	}
	if got := srv.Stats().Conns(); got != callers+1 {
		t.Errorf("server accepted %d connections, want %d: one per demand caller and the stream's", got, callers+1)
	}
	if got := tr.Stats().OpenConns(); got != callers+1 || got > maxConns {
		t.Errorf("OpenConns = %d, want %d (cap %d)", got, callers+1, maxConns)
	}
	if st := tr.Stats(); st.ConnWaits() != 0 || st.Reconnects() != 0 {
		t.Errorf("connWaits = %d, reconnects = %d; want 0, 0", st.ConnWaits(), st.Reconnects())
	}
}

// countedStream serves keyedStore(objs) through a listener that counts
// the server's socket reads and writes, and dials a transport whose
// connections count the client's; the stream's connection has said its
// hello and served one fetch before it returns, so the counts that follow
// are the stream's own frames.
func countedStream(t *testing.T, objs int) (tr *TCPTransport, cr, cw, sr, sw *atomic.Int64) {
	t.Helper()
	cr, cw, sr, sw = new(atomic.Int64), new(atomic.Int64), new(atomic.Int64), new(atomic.Int64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(keyedStore(t, objs))
	srv.Serve(countingListener{ln, sr, sw})
	t.Cleanup(func() { srv.Close() })
	tr, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	dialThrough(tr, func(c net.Conn) net.Conn { return countingConn{c, cr, cw} })
	startBurst(t, tr, uint64(objs-1)).wait(t, 0) // dial, hello and a first fetch
	if cw.Load() == 0 {
		t.Fatal("the counting dialer was not used")
	}
	awaitHandlers(t, srv, 1)
	return tr, cr, cw, sr, sw
}

// TestStreamIdleFlushSyscalls pins the flush rule and the server's: four
// 4 KiB fetches started while one reply is still unread stay unsent — no
// client write — until that reply has been read and one of them is waited
// on; then all four are one write on the client and one read on the
// server, and their replies one write on the server and at most one read
// on the client, where TestTCPOneSyscallPerFrame counts one of each per
// frame for a client that waits for every reply.
func TestStreamIdleFlushSyscalls(t *testing.T) {
	tr, cr, cw, sr, sw := countedStream(t, 16)
	sw0 := sw.Load()
	first := startBurst(t, tr, 0) // nothing in flight: goes out by itself
	waitFor(t, "the first reply to be written", func() bool { return sw.Load() > sw0 })
	w0, sr0 := cw.Load(), sr.Load()
	sw0 = sw.Load()
	b := startBurst(t, tr, 1, 2, 3, 4)
	if w := cw.Load() - w0; w != 0 {
		t.Errorf("4 requests started behind an unread reply: %d client writes, want 0 until it is read", w)
	}
	first.wait(t, 0)
	if w := cw.Load() - w0; w != 0 {
		t.Errorf("after the in-flight reply was read: %d client writes, want 0 until a Wait or a StartFetch", w)
	}
	r0 := cr.Load() // the first reply's read is not the burst's
	for i := range b.keys {
		if err := b.wait(t, i); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if w := cw.Load() - w0; w != 1 {
		t.Errorf("4 requests flushed by the first Wait: %d client writes, want 1", w)
	}
	if r := cr.Load() - r0; r > 1 {
		t.Errorf("4 pipelined 4 KiB replies: %d client reads, want at most 1", r)
	}
	if r, w := sr.Load()-sr0, sw.Load()-sw0; r != 1 || w != 1 {
		t.Errorf("server made %d reads and %d writes for the burst, want 1 and 1", r, w)
	}
	if st := tr.Stats(); st.PipelinedFetches() != 6 || st.StreamFlushes() != 3 {
		t.Errorf("pipelined = %d, streamFlushes = %d; want 6 and 3", st.PipelinedFetches(), st.StreamFlushes())
	}
}

// TestStreamWindowSyscalls: a depth-8 loop in steady state (a Wait, then a
// StartFetch eight tickets ahead, as BenchmarkTCPFetchPipelined8 and a
// chunked loop run it) goes idle once per eight fetches, when the last
// reply of a window is read; the StartFetch after that sends the next
// eight requests. Each window is exactly one client write, one server read
// and one server write, and at most one client read: eight 4 KiB replies
// fit both ends' wire buffers.
func TestStreamWindowSyscalls(t *testing.T) {
	const objs, depth, windows = 64, 8, 50
	tr, cr, cw, sr, sw := countedStream(t, objs)
	b := startBurst(t, tr, seqKeys(0, depth)...)
	var r0, w0, sr0, sw0 int64
	var flushes0 uint64
	for i := 0; i < (windows+2)*depth; i++ {
		if i == 2*depth { // ticket 0 went alone and 1-8 as the first window: steady from here
			r0, w0, sr0, sw0 = cr.Load(), cw.Load(), sr.Load(), sw.Load()
			flushes0 = tr.Stats().StreamFlushes()
		}
		j := i % depth
		if err := b.wait(t, j); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		var err error
		b.keys[j] = uint64((i + depth) % objs)
		if b.tickets[j], err = tr.StartFetch(b.keys[j], b.bufs[j]); err != nil {
			t.Fatalf("StartFetch(%d): %v", i+depth, err)
		}
	}
	if w := cw.Load() - w0; w != windows {
		t.Errorf("%d windows of %d fetches: %d client writes, want %d", windows, depth, w, windows)
	}
	if f := tr.Stats().StreamFlushes() - flushes0; f != windows {
		t.Errorf("%d windows: %d stream flushes, want %d", windows, f, windows)
	}
	if r, w := sr.Load()-sr0, sw.Load()-sw0; r != windows || w != windows {
		t.Errorf("%d windows: server made %d reads and %d writes, want %d and %d", windows, r, w, windows, windows)
	}
	if r := cr.Load() - r0; r > windows {
		t.Errorf("%d windows of 8 replies: %d client reads, want at most %d", windows, r, windows)
	}
	for i := range b.tickets {
		b.wait(t, i)
	}
}

// TestStreamUnsentTicketCompletes: a request started behind an unread
// reply is not sent by StartFetch, and no later StartFetch comes to send
// it. Its Wait sends it, whether it is waited on before the in-flight
// ticket (which its Wait then reads past) or after it; and Close fails
// still-unsent tickets with ErrClosed, as it fails the in-flight ones.
func TestStreamUnsentTicketCompletes(t *testing.T) {
	for _, order := range []struct {
		name  string
		first int
	}{{"waited before the in-flight ticket", 1}, {"waited after the in-flight ticket", 0}} {
		t.Run(order.name, func(t *testing.T) {
			_, tr := serveAndDial(t, keyedStore(t, 8))
			b := startBurst(t, tr, 3, 4) // 3 in flight, 4 unsent behind it
			if st := tr.Stats(); st.StreamFlushes() != 1 {
				t.Fatalf("streamFlushes = %d after a StartFetch and one behind it, want 1", st.StreamFlushes())
			}
			for _, i := range []int{order.first, 1 - order.first} {
				if err := b.wait(t, i); err != nil {
					t.Errorf("ticket %d: %v", i, err)
				}
			}
			if st := tr.Stats(); st.StreamFlushes() != 2 {
				t.Errorf("streamFlushes = %d, want 2: the Wait that needed the unsent request sent it", st.StreamFlushes())
			}
		})
	}
	t.Run("Close fails the unsent", func(t *testing.T) {
		_, tr := serveAndDial(t, keyedStore(t, 8))
		b := startBurst(t, tr, 3, 4, 5)
		if err := tr.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i := range b.keys {
			if err := b.wait(t, i); !errors.Is(err, ErrClosed) {
				t.Errorf("ticket %d after Close = %v, want ErrClosed (0 was in flight, the rest unsent)", i, err)
			}
		}
	})
}

// TestStreamAllocFree: a pipelined fetch allocates nothing on either side,
// alone or at depth 8 (client and in-process server share the heap
// AllocsPerRun watches).
func TestStreamAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, tr := serveAndDial(t, keyedStore(t, 16))
	const depth = 8
	var bufs [depth][]byte
	var tickets [depth]Ticket
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
	}
	var opErr error
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		tk, err := tr.StartFetch(uint64(i%16), bufs[0])
		if err == nil {
			_, err = tk.Wait()
		}
		if err != nil {
			opErr = err
		}
		i++
	}); n != 0 || opErr != nil {
		t.Errorf("StartFetch + Wait: %v allocs (%v), want 0", n, opErr)
	}
	for i := range tickets {
		tickets[i], _ = tr.StartFetch(uint64(i), bufs[i])
	}
	if n := testing.AllocsPerRun(200, func() {
		_, err := tickets[i%depth].Wait()
		if err == nil {
			tickets[i%depth], err = tr.StartFetch(uint64(i%16), bufs[i%depth])
		}
		if err != nil {
			opErr = err
		}
		i++
	}); n != 0 || opErr != nil {
		t.Errorf("depth-8 Wait + StartFetch: %v allocs (%v), want 0", n, opErr)
	}
	for i := range tickets {
		tickets[i].Wait()
	}
}

// TestServerFlushesBeforeItParksOrHangsUp: with replies no longer flushed
// frame by frame, the two places one could be left behind. A drain that
// begins while a fetch is being served still puts its reply on the wire
// before the hang-up; and a client that sends a fetch with a push header
// behind it, then withholds the push's payload, has the fetch's reply
// before the server parks waiting for that payload.
func TestServerFlushesBeforeItParksOrHangsUp(t *testing.T) {
	payload := make([]byte, 4096)
	keyedPayload(payload, 3, 1)
	readReply := func(t *testing.T, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		reply := make([]byte, 1+len(payload)+crcLen)
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatalf("fetch reply: %v", err)
		}
		if reply[0] != flagFound || checkKeyedPayload(reply[1:1+len(payload)], 3, 1) != nil {
			t.Fatalf("fetch reply flag %#x, or not key 3's payload", reply[0])
		}
	}
	t.Run("drain", func(t *testing.T) {
		store := &gateStore{Store: keyedStore(t, 4), open: make(chan struct{})}
		store.armed.Store(true)
		srv := NewServer(store)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := dialRaw(t, addr)
		if _, err := conn.Write(reqFrame(opFetch, 3, uint32(len(payload)), 0)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the fetch to reach the store", func() bool { return store.parked.Load() > 0 })
		shut := make(chan error, 1)
		go func() { shut <- srv.Shutdown(2 * time.Second) }()
		waitFor(t, "the drain to begin", srv.draining.Load)
		close(store.open)
		readReply(t, conn)
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("after the drained reply: %v, want the hang-up", err)
		}
		if err := <-shut; err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	t.Run("withheld push payload", func(t *testing.T) {
		srv := NewServer(keyedStore(t, 4))
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := dialRaw(t, addr)
		push := pushFrame(9, 0, payload)
		head := append(reqFrame(opFetch, 3, uint32(len(payload)), 0), push[:hdrLen]...)
		if _, err := conn.Write(head); err != nil { // one write: the push header is buffered behind the fetch
			t.Fatal(err)
		}
		readReply(t, conn)
		if ack, err := sendRaw(t, conn, push[hdrLen:]); err != nil || ack != ackOK {
			t.Errorf("push completed after its reply was read: ack %#x, %v", ack, err)
		}
	})
}

// consume stands for a chunk body: it sums the object's 512 words.
func consume(buf []byte) (sum uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		sum += binary.BigEndian.Uint64(buf[i:])
	}
	return sum
}

var benchSink uint64

// BenchmarkTCPFetchSerial is the blocking path a prefetcher had before the
// stream: one round trip, then the chunk body, per object.
func BenchmarkTCPFetchSerial(b *testing.B) {
	const objs = 1024
	_, tr := serveAndDial(b, keyedStore(b, objs))
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TryFetchUntil(uint64(i%objs), buf, Deadline{}); err != nil {
			b.Fatal(err)
		}
		benchSink += consume(buf)
	}
}

// BenchmarkTCPFetchPipelined8 is the same work with eight fetches kept in
// flight on the prefetch stream, as a depth-8 chunked loop keeps them.
func BenchmarkTCPFetchPipelined8(b *testing.B) {
	const objs, depth = 1024, 8
	srv, tr := serveAndDial(b, keyedStore(b, objs))
	var bufs [depth][]byte
	var tickets [depth]Ticket
	start := func(i int) {
		var err error
		if tickets[i%depth], err = tr.StartFetch(uint64(i%objs), bufs[i%depth]); err != nil {
			b.Fatal(err)
		}
	}
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
		start(i)
	}
	b.ReportAllocs()
	frames, flushes := srv.Stats().Frames(), srv.Stats().Flushes()
	sent, writes := tr.Stats().PipelinedFetches(), tr.Stats().StreamFlushes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tickets[i%depth].Wait(); err != nil {
			b.Fatal(err)
		}
		benchSink += consume(bufs[i%depth])
		start(i + depth)
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Stats().Frames()-frames)/float64(srv.Stats().Flushes()-flushes), "frames/flush")
	b.ReportMetric(float64(tr.Stats().PipelinedFetches()-sent)/float64(tr.Stats().StreamFlushes()-writes), "reqs/flush")
	for i := range tickets {
		tickets[i].Wait()
	}
}

// TestFetchAsyncHelperFallback pins the canonical prefetch entry point,
// fabric.StartFetch: over a transport with no StartFetch of its own (a
// decorator that forwards only the blocking methods, as fmbench's tracer
// does) it is an ordinary undeadlined fetch — same result, same payload —
// behind a ticket born complete; TCPTransport's tickets are pending until
// waited on; SimLink's are born complete and charge the overlapped cost
// model.
func TestFetchAsyncHelperFallback(t *testing.T) {
	check := func(t *testing.T, tr ErrorTransport, wantPending bool) {
		t.Helper()
		blob := []byte("helper contract")
		if err := tr.TryPushUntil(6, blob, Deadline{}); err != nil {
			t.Fatalf("TryPushUntil: %v", err)
		}
		a := make([]byte, len(blob))
		b := make([]byte, len(blob))
		fs, errS := tr.TryFetchUntil(6, a, Deadline{})
		tk, err := StartFetch(tr, 6, b)
		if err != nil {
			t.Fatalf("StartFetch: %v", err)
		}
		if tk.Pending() != wantPending {
			t.Fatalf("ticket pending = %v, want %v", tk.Pending(), wantPending)
		}
		fa, errA := tk.Wait()
		if fs != fa || (errS == nil) != (errA == nil) || !bytes.Equal(a, b) {
			t.Fatalf("StartFetch + Wait diverged from TryFetchUntil: (%v,%v) vs (%v,%v)", fs, errS, fa, errA)
		}
		if !fs || errS != nil {
			t.Fatalf("pushed key not served: (%v, %v)", fs, errS)
		}
	}
	t.Run("BlockingOnly", func(t *testing.T) {
		// Embedding the interface hides SimLink's StartFetch: only the
		// blocking triple is forwarded.
		blocking := struct{ ErrorTransport }{NewSimLink(sim.NewEnv(), BackendTCP)}
		if _, ok := interface{}(blocking).(AsyncFetcher); ok {
			t.Fatalf("the blocking-only decorator exposes StartFetch: this subtest pins the fallback, which needs a transport that has none")
		}
		check(t, blocking, false)
	})
	t.Run("TCPTransport", func(t *testing.T) {
		srv := NewServer(remote.NewStore())
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
		defer srv.Close()
		tr, err := Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer tr.Close()
		check(t, tr, true)
	})
	t.Run("SimLinkUsesAsyncCostModel", func(t *testing.T) {
		env := sim.NewEnv()
		link := NewSimLink(env, BackendTCP)
		blob := make([]byte, 4096)
		if err := link.TryPushUntil(7, blob, Deadline{}); err != nil {
			t.Fatalf("TryPushUntil: %v", err)
		}
		dst := make([]byte, len(blob))
		before := env.Clock.Cycles()
		tk, err := StartFetch(link, 7, dst)
		if err != nil || tk.Pending() {
			t.Fatalf("StartFetch = pending %v, %v; a SimLink ticket is born complete", tk.Pending(), err)
		}
		asyncCost := env.Clock.Cycles() - before
		if found, err := tk.Wait(); !found || err != nil {
			t.Fatalf("Wait = (%v, %v)", found, err)
		}
		if env.Clock.Cycles()-before != asyncCost {
			t.Fatalf("Wait on a ticket born complete charged the clock")
		}
		before = env.Clock.Cycles()
		if _, err := link.TryFetchUntil(7, dst, Deadline{}); err != nil {
			t.Fatalf("TryFetchUntil: %v", err)
		}
		demandCost := env.Clock.Cycles() - before
		if asyncCost >= demandCost {
			t.Fatalf("StartFetch charged %d cycles, demand fetch %d; overlap model lost", asyncCost, demandCost)
		}
	})
}
