package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// gateLink is a test transport whose failures are switched on and off
// directly, for driving the breaker state machine deterministically.
type gateLink struct {
	inner ErrorTransport
	down  bool

	fetchErr error // when set, what every fetch reports
}

func newGateLink(env *sim.Env) *gateLink {
	return &gateLink{inner: NewSimLink(env, BackendTCP)}
}

func (g *gateLink) op() error {
	if g.down {
		return fmt.Errorf("%w: gate closed", ErrRemoteUnavailable)
	}
	return nil
}

func (g *gateLink) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	if err := g.op(); err != nil {
		return false, err
	}
	if g.fetchErr != nil {
		return false, g.fetchErr
	}
	return g.inner.TryFetchUntil(key, dst, dl)
}

func (g *gateLink) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	if err := g.op(); err != nil {
		return err
	}
	return g.inner.TryPushUntil(key, src, dl)
}

func (g *gateLink) TryDeleteUntil(key uint64, dl Deadline) error {
	if err := g.op(); err != nil {
		return err
	}
	return g.inner.TryDeleteUntil(key, dl)
}

func newTestSet(t *testing.T, n int, cfg ReplicaConfig) (*ReplicaSet, []*SimLink) {
	t.Helper()
	env := sim.NewEnv()
	links := make([]*SimLink, n)
	members := make([]ErrorTransport, n)
	for i := range links {
		links[i] = NewSimLink(env, BackendTCP)
		members[i] = links[i]
	}
	rs, err := NewReplicaSet(cfg, members...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	return rs, links
}

func TestReplicaSetWriteFanOut(t *testing.T) {
	rs, links := newTestSet(t, 3, ReplicaConfig{})
	blob := []byte("replicated payload")
	if err := rs.TryPushUntil(7, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	for i, l := range links {
		dst := make([]byte, len(blob))
		if !mustFetch(t, l, 7, dst) || !bytes.Equal(dst, blob) {
			t.Fatalf("replica %d did not receive the write", i)
		}
	}
	dst := make([]byte, len(blob))
	found, err := rs.TryFetchUntil(7, dst, Deadline{})
	if err != nil || !found || !bytes.Equal(dst, blob) {
		t.Fatalf("TryFetch = (%v, %v), payload match %v", found, err, bytes.Equal(dst, blob))
	}
	if err := rs.TryDeleteUntil(7, Deadline{}); err != nil {
		t.Fatalf("TryDelete: %v", err)
	}
	for i, l := range links {
		if l.RemoteKeys() != 0 {
			t.Fatalf("replica %d still holds keys after delete", i)
		}
	}
}

func TestReplicaSetQuorumFailure(t *testing.T) {
	env := sim.NewEnv()
	gates := []*gateLink{newGateLink(env), newGateLink(env), newGateLink(env)}
	rs, err := NewReplicaSet(ReplicaConfig{Quorum: 2}, gates[0], gates[1], gates[2])
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	gates[1].down = true
	gates[2].down = true
	err = rs.TryPushUntil(1, []byte{0xAB}, Deadline{})
	if !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("push with 1/2 quorum: err = %v, want ErrRemoteUnavailable", err)
	}
	if rs.ReplicaStats().QuorumFails() == 0 {
		t.Fatal("quorum failure not counted")
	}
	gates[1].down = false
	if err := rs.TryPushUntil(1, []byte{0xAB}, Deadline{}); err != nil {
		t.Fatalf("push with 2/2 quorum: %v", err)
	}
}

func TestReplicaSetQuorumValidation(t *testing.T) {
	env := sim.NewEnv()
	if _, err := NewReplicaSet(ReplicaConfig{Quorum: 3}, NewSimLink(env, BackendTCP)); err == nil {
		t.Fatal("quorum larger than member count accepted")
	}
	if _, err := NewReplicaSet(ReplicaConfig{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestReplicaSetFailoverRead(t *testing.T) {
	env := sim.NewEnv()
	gates := []*gateLink{newGateLink(env), newGateLink(env)}
	rs, err := NewReplicaSet(ReplicaConfig{Quorum: 1}, gates[0], gates[1])
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	blob := []byte("failover me")
	if err := rs.TryPushUntil(3, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	gates[0].down = true
	dst := make([]byte, len(blob))
	found, err := rs.TryFetchUntil(3, dst, Deadline{})
	if err != nil || !found || !bytes.Equal(dst, blob) {
		t.Fatalf("failover read = (%v, %v)", found, err)
	}
	if rs.ReplicaStats().Failovers() == 0 {
		t.Fatal("failover not counted")
	}
}

func TestReplicaSetBreakerLifecycle(t *testing.T) {
	clk := &sim.Clock{}
	env := sim.NewEnv()
	gates := []*gateLink{newGateLink(env), newGateLink(env)}
	rs, err := NewReplicaSet(ReplicaConfig{
		Quorum:           1,
		FailureThreshold: 3,
		OpenTimeout:      1000,
		Clock:            clk,
		Seed:             42,
	}, gates[0], gates[1])
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	blob := []byte("breaker payload")
	if err := rs.TryPushUntil(9, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}

	// Fail replica 0 until its breaker opens.
	gates[0].down = true
	for i := 0; i < 3; i++ {
		if err := rs.TryPushUntil(9, blob, Deadline{}); err != nil {
			t.Fatalf("push %d should still meet quorum 1: %v", i, err)
		}
	}
	h := rs.Health()
	if h[0].State != BreakerOpen {
		t.Fatalf("replica 0 breaker = %v after threshold failures, want open", h[0].State)
	}
	if rs.ReplicaStats().BreakerOpens() != 1 {
		t.Fatalf("breakerOpens = %d, want 1", rs.ReplicaStats().BreakerOpens())
	}
	if h[0].MissedKeys == 0 {
		t.Fatal("missed writes not recorded for the open replica")
	}

	// While open, writes skip the replica entirely (no new failures), and
	// this newest version is what resync must later replay.
	latest := []byte("BREAKER PAYLOAD")
	if err := rs.TryPushUntil(9, latest, Deadline{}); err != nil {
		t.Fatalf("push while open: %v", err)
	}

	// Advance past the (jittered <= 5/4) open timeout while still down:
	// the half-open probe must fail and re-open the breaker.
	clk.Advance(1251)
	rs.Probe()
	if got := rs.Health()[0].State; got != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", got)
	}
	if rs.ReplicaStats().ProbeFails() == 0 {
		t.Fatal("failed probe not counted")
	}

	// Recover the replica, advance past the next timeout: the probe must
	// resync the missed writes and close the breaker.
	gates[0].down = false
	clk.Advance(1251)
	rs.Probe()
	h = rs.Health()
	if h[0].State != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", h[0].State)
	}
	if h[0].MissedKeys != 0 {
		t.Fatalf("missed keys after resync = %d, want 0", h[0].MissedKeys)
	}
	if rs.ReplicaStats().ResyncedKeys() == 0 {
		t.Fatal("resynced writes not counted")
	}

	// The resynced replica serves the latest version, not the one it
	// missed first.
	dst := make([]byte, len(latest))
	found, err := gates[0].TryFetchUntil(9, dst, Deadline{})
	if err != nil || !found {
		t.Fatalf("direct fetch from resynced replica = (%v, %v)", found, err)
	}
	if !bytes.Equal(dst, latest) {
		t.Fatalf("resynced replica holds %q, want latest %q", dst, latest)
	}
}

func TestReplicaSetChecksumRepairStale(t *testing.T) {
	rs, links := newTestSet(t, 2, ReplicaConfig{Quorum: 1})
	blob := []byte("authoritative bytes")
	if err := rs.TryPushUntil(5, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	// Corrupt replica 0's at-rest copy behind the set's back.
	stale := append([]byte(nil), blob...)
	stale[0] ^= 0xFF
	mustPush(t, links[0], 5, stale)

	dst := make([]byte, len(blob))
	found, err := rs.TryFetchUntil(5, dst, Deadline{})
	if err != nil || !found || !bytes.Equal(dst, blob) {
		t.Fatalf("read of corrupted replica = (%v, %v), payload intact %v", found, err, bytes.Equal(dst, blob))
	}
	if rs.Stats().ChecksumFaults() == 0 {
		t.Fatal("corruption not counted as a checksum fault")
	}
	if rs.ReplicaStats().ReadRepairs() == 0 {
		t.Fatal("read repair not counted")
	}
	// The bad replica was overwritten in place with the good copy.
	got := make([]byte, len(blob))
	if !mustFetch(t, links[0], 5, got) || !bytes.Equal(got, blob) {
		t.Fatal("replica 0 not repaired")
	}
}

func TestReplicaSetRepairsAbsentBlob(t *testing.T) {
	rs, links := newTestSet(t, 2, ReplicaConfig{Quorum: 1})
	blob := []byte("must survive restart")
	if err := rs.TryPushUntil(11, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	// Replica 0 "restarts empty": it acked the write but lost the blob.
	mustDelete(t, links[0], 11)

	dst := make([]byte, len(blob))
	found, err := rs.TryFetchUntil(11, dst, Deadline{})
	if err != nil || !found || !bytes.Equal(dst, blob) {
		t.Fatalf("read after replica data loss = (%v, %v)", found, err)
	}
	got := make([]byte, len(blob))
	if !mustFetch(t, links[0], 11, got) || !bytes.Equal(got, blob) {
		t.Fatal("absent blob not re-pushed to replica 0")
	}
	if rs.ReplicaStats().ReadRepairs() == 0 {
		t.Fatal("absent-blob repair not counted")
	}
}

func TestReplicaSetInFlightCorruptionDetected(t *testing.T) {
	env := sim.NewEnv()
	inner0 := NewSimLink(env, BackendTCP)
	inner1 := NewSimLink(env, BackendTCP)
	// Replica 0's link corrupts every fetched payload in flight.
	f0 := NewFaultLink(inner0, FaultConfig{Seed: 1, CorruptRate: 1})
	rs, err := NewReplicaSet(ReplicaConfig{Quorum: 1}, f0, inner1)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	blob := []byte("bytes on a noisy wire")
	if err := rs.TryPushUntil(2, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	dst := make([]byte, len(blob))
	found, err := rs.TryFetchUntil(2, dst, Deadline{})
	if err != nil || !found || !bytes.Equal(dst, blob) {
		t.Fatalf("read over corrupting link = (%v, %v), payload intact %v", found, err, bytes.Equal(dst, blob))
	}
	if rs.Stats().ChecksumFaults() == 0 {
		t.Fatal("in-flight corruption not counted")
	}
	if got := f0.Stats().Corruptions; got == 0 {
		t.Fatal("fault link reports no corruption — test is vacuous")
	}
}

// TestReplicaSetIntegrityAtRestVersusOnTheWire pins what a ReplicaSet makes
// of a member's ErrIntegrity. The permanent one is the node's own verdict
// on its blob (ackCorrupt): the node is alive, so its breaker is untouched,
// and the replica is repaired from a healthy copy. A transient one is a
// payload damaged on the wire that outlived the member's retries: the path
// to that node is failing, so it counts toward the breaker like any other
// failed read and nothing is "repaired" over the same bad link.
func TestReplicaSetIntegrityAtRestVersusOnTheWire(t *testing.T) {
	atRest := permanent(fmt.Errorf("%w: server reports blob corrupt or truncated", ErrIntegrity))
	onWire := classify(fmt.Errorf("%w: fetch payload CRC mismatch", ErrIntegrity))
	if !isIntegrity(onWire) || Permanent(onWire) {
		t.Fatalf("classify(%v) = %v: a wire CRC mismatch stays a retryable ErrIntegrity", ErrIntegrity, onWire)
	}
	for _, row := range []struct {
		name        string
		err         error
		wantFails   int
		wantRepairs uint64
	}{
		{"corrupt at rest", atRest, 0, 1},
		{"damaged on the wire", onWire, 1, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			env := sim.NewEnv()
			gates := []*gateLink{newGateLink(env), newGateLink(env)}
			rs, err := NewReplicaSet(ReplicaConfig{Quorum: 1, FailureThreshold: 3}, gates[0], gates[1])
			if err != nil {
				t.Fatalf("NewReplicaSet: %v", err)
			}
			blob := []byte("integrity, twice")
			if err := rs.TryPushUntil(4, blob, Deadline{}); err != nil {
				t.Fatalf("TryPush: %v", err)
			}
			gates[0].fetchErr = row.err
			dst := make([]byte, len(blob))
			found, err := rs.TryFetchUntil(4, dst, Deadline{})
			if err != nil || !found || !bytes.Equal(dst, blob) {
				t.Fatalf("read past the bad replica = (%v, %v)", found, err)
			}
			h := rs.Health()[0]
			if h.ConsecFails != row.wantFails {
				t.Errorf("replica 0: %d consecutive failures, want %d", h.ConsecFails, row.wantFails)
			}
			if got := rs.ReplicaStats().ReadRepairs(); got != row.wantRepairs {
				t.Errorf("ReadRepairs = %d, want %d", got, row.wantRepairs)
			}
			// Three reads over the damaged path open the breaker; a node
			// that keeps saying "corrupt at rest" never does.
			for i := 0; i < 2; i++ {
				if _, err := rs.TryFetchUntil(4, dst, Deadline{}); err != nil {
					t.Fatalf("read %d: %v", i+2, err)
				}
			}
			want := BreakerClosed
			if row.wantFails > 0 {
				want = BreakerOpen
			}
			if got := rs.Health()[0].State; got != want {
				t.Errorf("replica 0 breaker = %v after three such reads, want %v", got, want)
			}
		})
	}
}

func TestReplicaSetUntrackedReadIsNotFound(t *testing.T) {
	rs, _ := newTestSet(t, 3, ReplicaConfig{})
	dst := make([]byte, 8)
	found, err := rs.TryFetchUntil(999, dst, Deadline{})
	if err != nil || found {
		t.Fatalf("fetch of never-written key = (%v, %v), want (false, nil)", found, err)
	}
}

// TestFetchAsyncHelperFallback pins the canonical prefetch entry point,
// fabric.StartFetch: over a transport with no StartFetch of its own
// (ReplicaSet) it is an ordinary undeadlined fetch — same result, same
// payload — behind a ticket born complete; TCPTransport's tickets are
// pending until waited on; SimLink's are born complete and charge the
// overlapped cost model.
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
	t.Run("ReplicaSet", func(t *testing.T) {
		if _, ok := interface{}(&ReplicaSet{}).(AsyncFetcher); ok {
			t.Fatalf("ReplicaSet grew a StartFetch: this subtest pins the blocking fallback, which needs a transport that has none")
		}
		rs, _ := newTestSet(t, 2, ReplicaConfig{})
		check(t, rs, false)
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
