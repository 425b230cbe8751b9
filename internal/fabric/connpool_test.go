package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
)

// keyedPayload fills a 4 KiB object whose every 8-byte word is (key, ver)
// mixed, so a response delivered to the wrong caller cannot pass for the
// right one.
func keyedPayload(buf []byte, key, ver uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.BigEndian.PutUint64(buf[i:], key<<20|ver<<8|uint64(i/8)&0xFF)
	}
}

func checkKeyedPayload(buf []byte, key, ver uint64) error {
	for i := 0; i+8 <= len(buf); i += 8 {
		if got, want := binary.BigEndian.Uint64(buf[i:]), key<<20|ver<<8|uint64(i/8)&0xFF; got != want {
			return fmt.Errorf("key %d ver %d word %d = %#x, want %#x (another caller's frame?)", key, ver, i/8, got, want)
		}
	}
	return nil
}

// rendezvousStore makes the callers' first fetch of gateKey wait inside
// the server until n of them are there, which puts n operations in flight
// on one transport at once however the scheduler interleaves them.
type rendezvousStore struct {
	*remote.Store
	n       int32
	arrived atomic.Int32
	open    chan struct{}
}

const gateKey = uint64(1) << 40

func newRendezvousStore(n int) *rendezvousStore {
	return &rendezvousStore{Store: remote.NewStore(), n: int32(n), open: make(chan struct{})}
}

func (s *rendezvousStore) Get(key uint64, dst []byte) (bool, error) {
	if key == gateKey {
		if s.arrived.Add(1) == s.n {
			close(s.open)
		}
		select {
		case <-s.open:
		case <-time.After(5 * time.Second): // the test then fails on Conns()
		}
	}
	return s.Store.Get(key, dst)
}

// runMixedCallers drives callers goroutines through rounds of push /
// fetch / delete / fetch on keys each owns, checking every payload, and
// retrying an operation at the application level until it succeeds or the
// caller's time is up (a restarting server fails operations for a while).
// midway, if set, is called once by caller 0 halfway through.
func runMixedCallers(t *testing.T, tr *TCPTransport, callers, rounds int, midway func()) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			giveUp := time.Now().Add(20 * time.Second)
			try := func(what string, op func() error) bool {
				for {
					err := op()
					if err == nil {
						return true
					}
					if time.Now().After(giveUp) {
						t.Errorf("caller %d never recovered: %s: %v", g, what, err)
						return false
					}
					time.Sleep(time.Millisecond)
				}
			}
			src, dst := make([]byte, 4096), make([]byte, 4096)
			if !try("gate fetch", func() error { _, err := tr.TryFetchUntil(gateKey, dst, Deadline{}); return err }) {
				return
			}
			for r := 0; r < rounds; r++ {
				if g == 0 && r == rounds/2 && midway != nil {
					midway()
				}
				key, ver := uint64(g*rounds+r+1), uint64(r)
				keyedPayload(src, key, ver)
				var found bool
				fetch := func() (err error) { found, err = tr.TryFetchUntil(key, dst, Deadline{}); return }
				ok := try("push", func() error { return tr.TryPushUntil(key, src, Deadline{}) }) && try("fetch", fetch)
				if !ok {
					return
				}
				if !found {
					t.Errorf("caller %d: key %d absent right after its push", g, key)
				} else if err := checkKeyedPayload(dst, key, ver); err != nil {
					t.Errorf("caller %d: %v", g, err)
				}
				if r%4 != 0 {
					continue
				}
				if !try("delete", func() error { return tr.TryDeleteUntil(key, Deadline{}) }) || !try("fetch after delete", fetch) {
					return
				}
				if found {
					t.Errorf("caller %d: key %d still found after its delete", g, key)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPConcurrentCallersNoCrossTalk: eight callers share one transport;
// each gets its own connection (at most maxConns of them) and only ever
// sees answers to its own requests.
func TestTCPConcurrentCallersNoCrossTalk(t *testing.T) {
	const callers = 8
	srv := NewServer(newRendezvousStore(callers))
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()
	tr, err := DialWith(addr, fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()

	runMixedCallers(t, tr, callers, 200, nil)

	if got := srv.Stats().Conns(); got != callers {
		t.Errorf("server accepted %d connections, want %d: one per caller in flight at once", got, callers)
	}
	if got := tr.Stats().OpenConns(); got != callers || got > maxConns {
		t.Errorf("OpenConns = %d, want %d (cap %d)", got, callers, maxConns)
	}
	if got := tr.Stats().Reconnects(); got != 0 {
		t.Errorf("Reconnects = %d, want 0: growing the pool is not a reconnect", got)
	}
	if got := tr.Stats().ConnWaits(); got != 0 {
		t.Errorf("ConnWaits = %d with %d callers under a cap of %d", got, callers, maxConns)
	}
}

// TestTCPConcurrentCallersSurviveRestart: the server is killed and
// replaced (same store, next generation) while eight callers are mid-run.
// Every caller recovers, nobody reads another's frame over a recycled
// connection, no socket to the dead server is still counted open, and the
// transport reports the new server's identity.
func TestTCPConcurrentCallersSurviveRestart(t *testing.T) {
	const callers = 8
	store := newRendezvousStore(callers)
	srv := NewServer(store)
	srv.SetGeneration(1, true)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr, err := DialWith(addr, fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()

	srv2 := NewServer(store)
	srv2.SetGeneration(2, true)
	defer srv2.Close()
	runMixedCallers(t, tr, callers, 200, func() {
		srv.Close()
		time.Sleep(20 * time.Millisecond) // long enough that in-flight ops exhaust their attempts
		if _, err := srv2.ListenAndServe(addr); err != nil {
			t.Errorf("restart ListenAndServe: %v", err)
		}
	})

	if gen, durable := tr.PeerIdentity(); gen != 2 || !durable {
		t.Errorf("PeerIdentity = %d, %v; want the restarted server's 2, true", gen, durable)
	}
	if got := tr.Stats().Reconnects(); got < 1 {
		t.Errorf("Reconnects = %d after a server restart, want >= 1", got)
	}
	if got := srv2.Stats().BadFrames(); got != 0 {
		t.Errorf("new server BadFrames = %d: a reconnect skipped its hello", got)
	}
	// One more round trip per idle connection would find any socket to
	// the dead server; the hang-up on the first already dropped them all.
	open, accepted := tr.Stats().OpenConns(), int64(srv2.Stats().Conns())
	if open < 1 || open > maxConns || open > accepted {
		t.Errorf("OpenConns = %d, new server accepted %d, cap %d: a dead socket is still pooled", open, accepted, maxConns)
	}
}

// TestTCPSingleCallerKeepsOneConnection pins the LIFO reuse: sequential
// operations, however many, never grow the pool.
func TestTCPSingleCallerKeepsOneConnection(t *testing.T) {
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
	buf := make([]byte, 4096)
	for i := uint64(0); i < 100; i++ {
		if err := tr.TryPushUntil(i, buf, Deadline{}); err != nil {
			t.Fatalf("push: %v", err)
		}
		if _, err := tr.TryFetchUntil(i, buf, Deadline{}); err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if err := tr.TryDeleteUntil(i, Deadline{}); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	if got := srv.Stats().Conns(); got != 1 {
		t.Errorf("server accepted %d connections from one caller, want 1", got)
	}
	if open, re := tr.Stats().OpenConns(), tr.Stats().Reconnects(); open != 1 || re != 0 {
		t.Errorf("OpenConns = %d, Reconnects = %d; want 1, 0", open, re)
	}
}

// TestTCPCallersWaitAtConnCap: with every connection held by a caller
// parked inside the server, one more caller waits (counted) instead of
// dialing past the cap, and proceeds when a connection comes back.
func TestTCPCallersWaitAtConnCap(t *testing.T) {
	store := newRendezvousStore(maxConns + 2) // never reached: the test opens the gate itself
	srv := NewServer(store)
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

	var wg sync.WaitGroup
	for g := 0; g < maxConns+1; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.TryFetchUntil(gateKey, make([]byte, 64), Deadline{}); err != nil {
				t.Errorf("gate fetch: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for (store.arrived.Load() < maxConns || tr.Stats().ConnWaits() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().ConnWaits(); got != 1 {
		t.Errorf("ConnWaits = %d with %d callers on %d connections, want 1", got, maxConns+1, maxConns)
	}
	if got := tr.Stats().OpenConns(); got != maxConns {
		t.Errorf("OpenConns = %d, want the cap %d", got, maxConns)
	}
	close(store.open) // let the parked callers finish; the waiter takes a returned connection
	wg.Wait()
	if got := srv.Stats().Conns(); got != maxConns {
		t.Errorf("server accepted %d connections, want the cap %d", got, maxConns)
	}
}

// TestTCPCloseDuringStalledOp is the regression test for the transport
// lock once held across I/O, backoff and redial: against a server that
// accepts and then says nothing, Close and the identity accessors return
// at once, and the stalled operation reports ErrClosed.
func TestTCPCloseDuringStalledOp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotHello := make(chan struct{})
	go func() { // black hole: read the first hello, never answer anything
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if held = append(held, conn); len(held) == 1 {
				go func() {
					if _, err := io.ReadFull(conn, make([]byte, helloLen)); err == nil {
						close(gotHello)
					}
				}()
			}
		}
	}()

	tr, err := DialWith(ln.Addr().String(), DialOptions{OpTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	opErr := make(chan error, 1)
	go func() {
		_, err := tr.TryFetchUntil(1, make([]byte, 64), Deadline{})
		opErr <- err
	}()
	select {
	case <-gotHello:
	case <-time.After(5 * time.Second):
		t.Fatal("the operation never reached the server")
	}

	start := time.Now()
	tr.PeerIdentity()
	if err := tr.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("PeerIdentity + Close took %v beside a stalled operation, want < 200ms", d)
	}
	select {
	case err := <-opErr:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("stalled operation = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("stalled operation still blocked 2s after Close")
	}
	if _, err := tr.TryFetchUntil(1, make([]byte, 64), Deadline{}); !errors.Is(err, ErrClosed) {
		t.Errorf("fetch after Close = %v, want ErrClosed", err)
	}
	if got := tr.Stats().OpenConns(); got != 0 {
		t.Errorf("OpenConns = %d after Close, want 0", got)
	}
}

// countingConn counts the Read and Write calls that reach the socket:
// each is one syscall on a *net.TCPConn. A write is counted when it
// starts and a read when it returns, so by the time a round trip returns
// to the caller all of its calls on both sides have been counted, and the
// read the server parks in afterwards has not.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// awaitHandlers waits until srv has n connection handlers left. A handler
// counts its connection's last read — the one that returns the hang-up of
// a connection the client dropped — before it exits, so a test that
// counts server reads waits for the dropped connections' handlers first.
func awaitHandlers(t *testing.T, srv *Server, n int) {
	t.Helper()
	waitFor(t, "the dropped connections' handlers to exit", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == n
	})
}

type countingListener struct {
	net.Listener
	reads, writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.reads, l.writes}, nil
}

// TestTCPOneSyscallPerFrame pins the buffer sizing: a 4 KiB fetch and a
// 4 KiB push each cost one write and one read on the client and one read
// and one write on the server. With bufio's default 4096-byte buffers
// every payload frame was two of each.
func TestTCPOneSyscallPerFrame(t *testing.T) {
	var cr, cw, sr, sw atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(remote.NewStore())
	srv.Serve(countingListener{ln, &sr, &sw})
	defer srv.Close()

	tr, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	// Dial made the first connection already; drop it so the one under
	// test comes from the counting dialer.
	dialThrough(tr, func(c net.Conn) net.Conn { return countingConn{c, &cr, &cw} })

	buf := make([]byte, 4096)
	keyedPayload(buf, 9, 1)
	if err := tr.TryPushUntil(9, buf, Deadline{}); err != nil { // also carries the hello
		t.Fatalf("warm-up push: %v", err)
	}
	if cw.Load() == 0 {
		t.Fatal("the counting dialer was not used")
	}
	awaitHandlers(t, srv, 1)
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"fetch", func() error { _, err := tr.TryFetchUntil(9, buf, Deadline{}); return err }},
		{"push", func() error { return tr.TryPushUntil(9, buf, Deadline{}) }},
	} {
		r0, w0, sr0, sw0 := cr.Load(), cw.Load(), sr.Load(), sw.Load()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if r, w := cr.Load()-r0, cw.Load()-w0; r != 1 || w != 1 {
			t.Errorf("4 KiB %s: client made %d reads and %d writes, want 1 and 1", op.name, r, w)
		}
		if r, w := sr.Load()-sr0, sw.Load()-sw0; r != 1 || w != 1 {
			t.Errorf("4 KiB %s: server made %d reads and %d writes, want 1 and 1", op.name, r, w)
		}
	}
	if err := checkKeyedPayload(buf, 9, 1); err != nil {
		t.Error(err)
	}
}

// TestTCPRoundTripAllocFree: a steady-state fetch or push over loopback —
// alone, as one exchange of pushes and a fetch behind them, or on the
// prefetch stream — allocates nothing on either side (client and
// in-process server share the heap AllocsPerRun watches), and the server
// serves its payload in place: no bufpool.Wire get, the client taking
// none either. Both for 4 KiB payloads and for MaxPayload, the largest
// frame, which exactly fits the wire buffers.
func TestTCPRoundTripAllocFree(t *testing.T) {
	for _, size := range []int{4096, MaxPayload} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			_, tr := serveAndDial(t, remote.NewStore())
			buf := make([]byte, size)
			pushes := []Push{{Key: 2, Src: make([]byte, size)}, {Key: 3, Src: make([]byte, size)}}
			// Every key is stored at its width first, so the pushes below
			// overwrite in place and take no lease in the store either.
			if err := tr.TryPushAll(append(pushes, Push{Key: 1, Src: buf}), Deadline{}); err != nil {
				t.Fatalf("push: %v", err)
			}
			for _, op := range []struct {
				name string
				run  func() error
			}{
				{"fetch round trip", func() error { _, err := tr.TryFetchUntil(1, buf, Deadline{}); return err }},
				{"push round trip", func() error { return tr.TryPushUntil(1, buf, Deadline{}) }},
				{"two pushes and a fetch in one exchange", func() error {
					_, err := tr.TryFetchAfterPushes(pushes, 1, buf, Deadline{})
					return err
				}},
				{"two pushes in one exchange", func() error { return tr.TryPushAll(pushes, Deadline{}) }},
				{"StartFetch + Wait", func() error {
					tk, err := tr.StartFetch(1, buf)
					if err == nil {
						_, err = tk.Wait()
					}
					return err
				}},
			} {
				var opErr error
				gets := bufpool.Wire.Stats().Gets
				n := testing.AllocsPerRun(100, func() {
					if err := op.run(); err != nil {
						opErr = err
					}
				})
				if opErr != nil {
					t.Fatalf("%s: %v", op.name, opErr)
				}
				if n != 0 && !bufpool.RaceEnabled { // the race detector's instrumentation allocates
					t.Errorf("%s: %v allocs, want 0", op.name, n)
				}
				if got := bufpool.Wire.Stats().Gets - gets; got != 0 {
					t.Errorf("%s: %d bufpool.Wire gets, want 0", op.name, got)
				}
			}
		})
	}
}
