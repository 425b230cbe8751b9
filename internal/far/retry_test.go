package far

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

// hangUpPeer accepts connections, answers each one's hello, reads one
// request header, counts it and hangs up: a peer that fails every request
// after it reached the wire. Frame sizes are the wire format's (see the
// table in fabric's tcp.go): a 13-byte hello answered by an 11-byte ack of
// version 4, then 21-byte request headers.
func hangUpPeer(t *testing.T) (addr string, requests *atomic.Uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	requests = new(atomic.Uint64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, 13)); err != nil {
					return
				}
				c.Write([]byte{0x5A, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0})
				if _, err := io.ReadFull(c, make([]byte, 21)); err == nil {
					requests.Add(1)
				}
			}(c)
		}
	}()
	return ln.Addr().String(), requests
}

// TestWireRequestsPerFailingOp: against a peer that hangs up on every
// request, ten fetches through an engine over one dialed TCPTransport reach
// the wire at most RemoteRetries times each, and in total exactly once each
// plus one per re-issue the engine's retry budget granted — so once the
// bucket is drained a failing fetch costs one request. The expected grants
// come from replaying the budget's rules (start full at 16, earn 0.1 per
// operation, a re-issue costs 1) over the same ten fetches; the real
// budget must have denied what the replay denies.
func TestWireRequestsPerFailingOp(t *testing.T) {
	const fetches = 10
	for _, retries := range []int{1, 2, 4, 8} {
		addr, requests := hangUpPeer(t)
		tr, err := fabric.Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		env := sim.NewEnv()
		e, err := New(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: tr, RemoteRetries: retries},
			Backend: fabric.BackendTCP, UnitSize: unit})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tokens, want, denied := 16.0, uint64(0), uint64(0)
		for i := 0; i < fetches; i++ {
			before := requests.Load()
			if _, err := e.Fetch(uint64(i), make([]byte, unit)); !errors.Is(err, fabric.ErrRemoteUnavailable) {
				t.Fatalf("RemoteRetries %d, fetch %d = %v, want ErrRemoteUnavailable", retries, i, err)
			}
			if got := requests.Load() - before; got > uint64(retries) {
				t.Errorf("RemoteRetries %d, fetch %d reached the wire %d times", retries, i, got)
			}
			if tokens += 0.1; tokens > 16 {
				tokens = 16
			}
			attempts := 1
			for ; attempts < retries && tokens >= 1; attempts++ {
				tokens--
			}
			if attempts < retries {
				denied++
			}
			want += uint64(attempts)
		}
		got := requests.Load()
		t.Logf("RemoteRetries %d: %.1f requests per failing fetch, %d re-issues denied", retries, float64(got)/fetches, e.budget.Exhausted())
		if got != want {
			t.Errorf("RemoteRetries %d: %d requests for %d fetches, want %d: one each plus the budget's grants", retries, got, fetches, want)
		}
		if e.budget.Exhausted() != denied {
			t.Errorf("RemoteRetries %d: budget denied %d re-issues, want %d", retries, e.budget.Exhausted(), denied)
		}
		e.Close()
		tr.Close()
	}
}

// TestOverloadEngineBrownout is the retry-amplification gate on the loop
// that runs: a 30% brownout (a FaultLink dropping operations over a
// SimLink) under 8000 fetches at the default RemoteRetries. Every re-issue
// is paid from the engine's retry budget, which earns 0.1 token per
// operation, so the link sees about 1.1 operations per fetch; the gate is
// the 1.15× that BENCH_overload.json's "brownout budgeted" row holds its
// one-loop model to.
func TestOverloadEngineBrownout(t *testing.T) {
	const fetches = 8000
	env := sim.NewEnv()
	fl := fabric.NewFaultLink(fabric.NewSimLink(env, fabric.BackendTCP), fabric.FaultConfig{Seed: 7, DropRate: 0.30})
	e, err := New(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: fl},
		Backend: fabric.BackendTCP, UnitSize: unit})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	failed := 0
	dst := make([]byte, unit)
	for i := 0; i < fetches; i++ {
		if _, err := e.Fetch(uint64(i%512), dst); err != nil {
			if !errors.Is(err, fabric.ErrRemoteUnavailable) {
				t.Fatalf("fetch %d = %v, want nil or ErrRemoteUnavailable", i, err)
			}
			failed++
		}
	}
	amp := float64(fl.Stats().Ops) / fetches
	t.Logf("%d fetches: %.3f link operations per fetch, %d failed, %d re-issues denied", fetches, amp, failed, e.budget.Exhausted())
	if amp > 1.15 {
		t.Errorf("retry amplification %.3f× under a 30%% brownout, want <= 1.15×", amp)
	}
}
