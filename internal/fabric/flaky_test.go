package fabric

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// TestMidResponseErrorMarksConnDead is the desync regression test: a
// server that truncates a response mid-frame must not leave the transport
// misparsing the stream — the attempt fails with ErrShortRead, the
// connection is torn down, and the next operation runs on a fresh one.
func TestMidResponseErrorMarksConnDead(t *testing.T) {
	store := remote.NewStore()
	store.Put(9, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	truncateFirst := make(chan struct{}, 1)
	truncateFirst <- struct{}{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			select {
			case <-truncateFirst:
				// First connection: answer the hello, then read the
				// request header, answer with the found flag and half
				// the payload, and die mid-frame.
				go func(c net.Conn) {
					defer c.Close()
					if _, err := io.ReadFull(c, make([]byte, helloLen)); err != nil {
						return
					}
					c.Write(helloReply(0, false))
					if _, err := io.ReadFull(c, make([]byte, hdrLen)); err != nil {
						return
					}
					c.Write([]byte{flagFound, 1, 2, 3, 4})
				}(c)
			default:
				// Later connections speak the full protocol.
				go srv.handle(c)
			}
		}
	}()

	tr, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	dst := make([]byte, 8)
	if _, err := tr.TryFetchUntil(9, dst, Deadline{}); !errors.Is(err, ErrShortRead) {
		t.Fatalf("TryFetch with a truncated response = %v, want ErrShortRead", err)
	}
	found, err := tr.TryFetchUntil(9, dst, Deadline{})
	if err != nil {
		t.Fatalf("TryFetch: %v", err)
	}
	if !found || !bytes.Equal(dst, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("fetch after truncated response = %v %v", found, dst)
	}
	st := tr.Stats()
	if st.ShortReads() < 1 {
		t.Fatalf("ShortReads = %d, want >= 1 (stats: %v)", st.ShortReads(), st)
	}
	if st.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want >= 1 (stats: %v)", st.Reconnects(), st)
	}
}

// TestTryFetchTimeout: against a server that answers nothing, or only the
// hello, a fetch under a 30 ms wall deadline fails with ErrTimeout within
// that budget, not after opTimeout: the hello's socket deadline is clamped
// to the budget as the exchange's is.
func TestTryFetchTimeout(t *testing.T) {
	for _, hello := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() { // answer the hello (if asked to), then nothing
					if _, err := io.ReadFull(c, make([]byte, helloLen)); err == nil && hello {
						c.Write(helloReply(0, false))
					}
					io.Copy(io.Discard, c)
				}()
			}
		}()
		tr, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer tr.Close()
		start := time.Now()
		if _, err := tr.TryFetchUntil(1, make([]byte, 8), WallDeadlineAfter(30*time.Millisecond)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("hello answered %v: TryFetch against mute server = %v, want ErrTimeout", hello, err)
		}
		if d := time.Since(start); d > opTimeout/4 {
			t.Errorf("hello answered %v: TryFetch took %v under a 30ms deadline", hello, d)
		}
		if got := tr.Stats().Timeouts(); got < 1 {
			t.Fatalf("hello answered %v: Timeouts = %d, want >= 1", hello, got)
		}
	}
}

func TestClosedTransportFailsFast(t *testing.T) {
	store := remote.NewStore()
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
	tr.Close()
	if _, err := tr.TryFetchUntil(1, make([]byte, 4), Deadline{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryFetch on closed transport = %v, want ErrClosed", err)
	}
	if err := tr.TryPushUntil(1, []byte{1}, Deadline{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPush on closed transport = %v, want ErrClosed", err)
	}
}

func TestServerAnswersOversizeWithErrorFrame(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	// Hand-craft an oversize fetch: the server must answer an error
	// frame and keep the connection serving (fetch carries no payload,
	// so the stream stays in sync).
	conn := dialRaw(t, addr)
	if ack, err := sendRaw(t, conn, reqFrame(opFetch, 0, MaxPayload+1, 0)); err != nil || ack != ackErr {
		t.Fatalf("oversize fetch answered %#x, %v; want error frame %#x", ack, err, ackErr)
	}
	// The same connection still serves well-formed requests.
	if ack, err := sendRaw(t, conn, reqFrame(opDelete, 0, 0, 0)); err != nil || ack != ackOK {
		t.Fatalf("delete after error frame answered %#x, %v; want ack", ack, err)
	}
	if got := srv.Stats().OversizeRejects(); got != 1 {
		t.Fatalf("OversizeRejects = %d, want 1", got)
	}

	// An oversize push is also answered, but its connection closes (the
	// unread payload cannot be skipped safely).
	conn2 := dialRaw(t, addr)
	if ack, err := sendRaw(t, conn2, reqFrame(opPush, 0, MaxPayload+1, 0)); err != nil || ack != ackErr {
		t.Fatalf("oversize push answered %#x, %v; want error frame", ack, err)
	}
	if _, err := sendRaw(t, conn2, nil); err != io.EOF {
		t.Fatalf("oversize-push connection not closed: %v", err)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	a, b := sim.NewRNG(123), sim.NewRNG(123)
	for retry := 1; retry <= 8; retry++ {
		da, db := backoff(retry, a), backoff(retry, b)
		if da != db {
			t.Fatalf("retry %d: jitter diverged with equal seeds: %v vs %v", retry, da, db)
		}
		nominal := min(baseBackoff<<(retry-1), maxBackoff)
		if da < nominal/2 || da >= nominal {
			t.Fatalf("retry %d: backoff %v outside [%v, %v)", retry, da, nominal/2, nominal)
		}
	}
}

func TestFaultLinkDeterministicSchedule(t *testing.T) {
	run := func() (FaultStats, []bool) {
		env := sim.NewEnv()
		inner := NewSimLink(env, BackendTCP)
		fl := NewFaultLink(inner, FaultConfig{Seed: 99, DropRate: 0.3})
		var outcomes []bool
		buf := make([]byte, 8)
		for i := 0; i < 200; i++ {
			_, err := fl.TryFetchUntil(uint64(i), buf, Deadline{})
			outcomes = append(outcomes, err == nil)
		}
		return fl.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats diverged across identical seeded runs: %+v vs %+v", s1, s2)
	}
	if s1.Drops == 0 {
		t.Fatalf("30%% drop rate injected nothing over 200 ops")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("op %d outcome diverged across identical seeded runs", i)
		}
	}
}

func TestFaultLinkOutageWindow(t *testing.T) {
	env := sim.NewEnv()
	fl := NewFaultLink(NewSimLink(env, BackendTCP), FaultConfig{OutageEvery: 10, OutageLen: 3})
	buf := make([]byte, 4)
	var failed []int
	for i := 1; i <= 25; i++ {
		if _, err := fl.TryFetchUntil(1, buf, Deadline{}); err != nil {
			if !errors.Is(err, ErrRemoteUnavailable) {
				t.Fatalf("op %d: outage error = %v, want ErrRemoteUnavailable", i, err)
			}
			failed = append(failed, i)
		}
	}
	want := []int{10, 11, 12, 20, 21, 22}
	if len(failed) != len(want) {
		t.Fatalf("outage ops = %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("outage ops = %v, want %v", failed, want)
		}
	}
	if got := fl.Stats().OutageFails; got != 6 {
		t.Fatalf("OutageFails = %d, want 6", got)
	}
}

func TestFaultLinkDelayChargesClock(t *testing.T) {
	env := sim.NewEnv()
	inner := NewSimLink(env, BackendTCP)
	fl := NewFaultLink(inner, FaultConfig{Seed: 5, DelayRate: 1.0, DelayCycles: 1000, Env: env})
	before := env.Clock.Cycles()
	if err := fl.TryPushUntil(1, []byte{1}, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if got, want := env.Clock.Cycles()-before, 1000+env.Costs.TransferCycles(1); got != want {
		t.Fatalf("delayed push charged %d cycles, want %d", got, want)
	}
	if fl.Stats().Delays != 1 {
		t.Fatalf("Delays = %d, want 1", fl.Stats().Delays)
	}
}

// TestFaultLinkCorruption: an injected corruption is a fault the system
// sees — the retryable ErrIntegrity TCPTransport's wire check raises, on
// the blocking and the split-phase fetch alike — never a payload handed
// over as good.
func TestFaultLinkCorruption(t *testing.T) {
	env := sim.NewEnv()
	inner := NewSimLink(env, BackendTCP)
	fl := NewFaultLink(inner, FaultConfig{Seed: 1, CorruptRate: 1.0})
	mustPush(t, fl, 3, []byte{7, 7, 7, 7})
	dst := make([]byte, 4)
	found, err := fl.TryFetchUntil(3, dst, Deadline{})
	if found || !errors.Is(err, ErrIntegrity) || Permanent(err) {
		t.Fatalf("TryFetchUntil = (%v, %v), want (false, a retryable ErrIntegrity)", found, err)
	}
	tk, err := fl.StartFetch(3, dst)
	if tk.Pending() || !errors.Is(err, ErrIntegrity) || Permanent(err) {
		t.Fatalf("StartFetch = (pending %v, %v), want a retryable ErrIntegrity", tk.Pending(), err)
	}
	if found, err := fl.TryFetchUntil(4, dst, Deadline{}); found || err != nil {
		t.Fatalf("fetch of an absent key = (%v, %v), want (false, nil): there is no payload to damage", found, err)
	}
	if got := fl.Stats().Corruptions; got != 2 {
		t.Fatalf("Corruptions = %d, want 2", got)
	}
}
