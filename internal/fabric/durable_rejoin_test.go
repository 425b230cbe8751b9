package fabric

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// leanDial builds a transport that fails fast against a dead server, so
// breaker tests spend milliseconds, not seconds, discovering an outage.
func leanDial(t *testing.T, addr string, seed uint64) *TCPTransport {
	t.Helper()
	tr, err := DialWith(addr, DialOptions{
		Retry: RetryPolicy{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
		},
		OpTimeout: time.Second,
		Seed:      seed,
	})
	if err != nil {
		t.Fatalf("DialWith(%s): %v", addr, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestHelloAdvertisesIdentity pins the hello exchange: a server with a
// generation installed hands it (and the durable bit) to the client, and a
// server without one advertises nothing, in a reply of the same length.
func TestHelloAdvertisesIdentity(t *testing.T) {
	srv := NewServer(remote.NewStore())
	srv.SetGeneration(7, true)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr := leanDial(t, addr, 1)
	if err := tr.TryPushUntil(1, []byte("x"), Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if got := srv.Stats().Hellos(); got != 1 {
		t.Fatalf("server Hellos = %d after one connection's first op, want 1", got)
	}
	gen, durable := tr.PeerIdentity()
	if gen != 7 || !durable {
		t.Fatalf("PeerIdentity = (%d, %v), want (7, true)", gen, durable)
	}

	srv2 := NewServer(remote.NewStore()) // no SetGeneration: nothing advertised
	addr2, err := srv2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv2.Close()
	tr2 := leanDial(t, addr2, 2)
	if err := tr2.TryPushUntil(1, []byte("x"), Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if gen, durable := tr2.PeerIdentity(); gen != 0 || durable {
		t.Fatalf("PeerIdentity = (%d, %v), want (0, false)", gen, durable)
	}
}

// TestReplicaSetDurableDeltaRejoin is the rejoin half of the durability
// story: a replica backed by a DurableStore crashes, recovers its keyspace
// from WAL + snapshot, and comes back with a bumped generation and the
// durable bit set. The set must recognize the restart and repair ONLY the
// keys written during its downtime — the recovered state covers the rest.
// What the member's memory holds at rest is not part of that story: the
// second row kills a compressing node and brings its data directory back
// under a plain one.
func TestReplicaSetDurableDeltaRejoin(t *testing.T) {
	for _, row := range []struct {
		name          string
		before, after func() *remote.Store
	}{
		{"plain", remote.NewStore, remote.NewStore},
		{"compressed, restarted plain", remote.NewCompressedStore, remote.NewStore},
	} {
		t.Run(row.name, func(t *testing.T) { durableDeltaRejoin(t, row.before, row.after) })
	}
}

func durableDeltaRejoin(t *testing.T, before, after func() *remote.Store) {
	const (
		preKeys      = 32
		downtimeKeys = 8
		objSize      = 32
		openTimeout  = 1_000
	)
	dir := t.TempDir()
	payload := func(k uint64) []byte {
		return bytes.Repeat([]byte{byte(k + 1)}, objSize)
	}

	ds, err := remote.Durable(before(), remote.DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Durable: %v", err)
	}
	srv0 := NewServer(ds)
	srv0.SetGeneration(ds.Generation(), true)
	addr0, err := srv0.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	mem1 := remote.NewStore()
	srv1 := NewServer(mem1)
	addr1, err := srv1.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv1.Close()

	tr0 := leanDial(t, addr0, 10)
	tr1 := leanDial(t, addr1, 11)
	clock := &sim.Clock{}
	rs, err := NewReplicaSet(ReplicaConfig{
		Quorum:           1,
		FailureThreshold: 2,
		OpenTimeout:      openTimeout,
		Clock:            clock,
		Seed:             3,
	}, tr0, tr1)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}

	for k := uint64(0); k < preKeys; k++ {
		clock.Advance(10)
		if err := rs.TryPushUntil(k, payload(k), Deadline{}); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}

	// Crash replica 0 abruptly: listener down, store files abandoned
	// mid-state (no final snapshot).
	srv0.Close()
	ds.Crash()

	for k := uint64(preKeys); k < preKeys+downtimeKeys; k++ {
		clock.Advance(10)
		if err := rs.TryPushUntil(k, payload(k), Deadline{}); err != nil {
			t.Fatalf("downtime push %d: %v", k, err)
		}
	}
	if h := rs.Health(); h[0].State == BreakerClosed && h[0].MissedKeys == 0 {
		t.Fatalf("replica 0 still looks healthy after crash: %v", h[0])
	}

	// Recover on the same address: the reopened store replays its WAL and
	// the new server advertises the bumped generation with the durable bit.
	ds2, err := remote.Durable(after(), remote.DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen Durable: %v", err)
	}
	defer ds2.Close()
	if ds2.Generation() <= ds.Generation() {
		t.Fatalf("generation did not advance: %d -> %d", ds.Generation(), ds2.Generation())
	}
	srv0b := NewServer(ds2)
	srv0b.SetGeneration(ds2.Generation(), true)
	if _, err := srv0b.ListenAndServe(addr0); err != nil {
		t.Fatalf("restart ListenAndServe: %v", err)
	}
	defer srv0b.Close()

	// Let the breaker timeout expire and probe until the replica rejoins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		clock.Advance(2 * openTimeout)
		rs.Probe()
		h := rs.Health()
		if h[0].State == BreakerClosed && h[0].MissedKeys == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 never rejoined: %v (stats %v)", h[0], rs.ReplicaStats())
		}
		time.Sleep(time.Millisecond)
	}

	st := rs.ReplicaStats()
	if st.Restarts() != 1 || st.DeltaRejoins() != 1 || st.FullResyncs() != 0 {
		t.Fatalf("restart classification: restarts=%d delta=%d full=%d, want 1/1/0",
			st.Restarts(), st.DeltaRejoins(), st.FullResyncs())
	}
	// The headline bound: repair traffic is limited to the writes the
	// replica missed while down, never the whole keyspace.
	if st.ResyncedKeys() > downtimeKeys {
		t.Fatalf("delta rejoin resynced %d keys, want <= %d (writes during downtime)",
			st.ResyncedKeys(), downtimeKeys)
	}
	// And the replica really holds everything: recovered keys from its own
	// WAL, downtime keys from the resync.
	for k := uint64(0); k < preKeys+downtimeKeys; k++ {
		dst := make([]byte, objSize)
		found, err := ds2.Get(k, dst)
		if err != nil || !found {
			t.Fatalf("replica 0 key %d after rejoin: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(dst, payload(k)) {
			t.Fatalf("replica 0 key %d holds wrong bytes", k)
		}
	}
}

// TestReplicaSetNonDurableRestartFullResync is the contrast case: a
// replica that advertises a new generation WITHOUT the durable bit came
// back empty, so the set must re-mark every tracked key missed and replay
// the full keyspace onto it.
func TestReplicaSetNonDurableRestartFullResync(t *testing.T) {
	const (
		preKeys     = 24
		objSize     = 16
		openTimeout = 1_000
	)
	payload := func(k uint64) []byte {
		return bytes.Repeat([]byte{byte(k + 1)}, objSize)
	}

	mem0 := remote.NewStore()
	srv0 := NewServer(mem0)
	srv0.SetGeneration(1, false) // gen-advertising but volatile
	addr0, err := srv0.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	mem1 := remote.NewStore()
	srv1 := NewServer(mem1)
	addr1, err := srv1.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv1.Close()

	tr0 := leanDial(t, addr0, 20)
	tr1 := leanDial(t, addr1, 21)
	clock := &sim.Clock{}
	rs, err := NewReplicaSet(ReplicaConfig{
		Quorum:           1,
		FailureThreshold: 2,
		OpenTimeout:      openTimeout,
		Clock:            clock,
		Seed:             4,
	}, tr0, tr1)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}

	for k := uint64(0); k < preKeys; k++ {
		clock.Advance(10)
		if err := rs.TryPushUntil(k, payload(k), Deadline{}); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
	}

	srv0.Close()
	// A couple of downtime writes so the breaker notices the outage.
	for k := uint64(0); k < 3; k++ {
		clock.Advance(10)
		if err := rs.TryPushUntil(k, payload(k), Deadline{}); err != nil {
			t.Fatalf("downtime push %d: %v", k, err)
		}
	}

	// Restart EMPTY on the same address with a bumped, non-durable
	// generation: total data loss on that node.
	mem0b := remote.NewStore()
	srv0b := NewServer(mem0b)
	srv0b.SetGeneration(2, false)
	if _, err := srv0b.ListenAndServe(addr0); err != nil {
		t.Fatalf("restart ListenAndServe: %v", err)
	}
	defer srv0b.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		clock.Advance(2 * openTimeout)
		rs.Probe()
		h := rs.Health()
		if h[0].State == BreakerClosed && h[0].MissedKeys == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 never rejoined: %v (stats %v)", h[0], rs.ReplicaStats())
		}
		time.Sleep(time.Millisecond)
	}

	st := rs.ReplicaStats()
	if st.Restarts() != 1 || st.FullResyncs() != 1 || st.DeltaRejoins() != 0 {
		t.Fatalf("restart classification: restarts=%d delta=%d full=%d, want 1/0/1",
			st.Restarts(), st.DeltaRejoins(), st.FullResyncs())
	}
	// Full resync: the entire tracked keyspace was replayed.
	if st.ResyncedKeys() < preKeys {
		t.Fatalf("full resync replayed %d keys, want >= %d", st.ResyncedKeys(), preKeys)
	}
	if mem0b.Len() != preKeys {
		t.Fatalf("replica 0 holds %d blobs after full resync, want %d", mem0b.Len(), preKeys)
	}
	for k := uint64(0); k < preKeys; k++ {
		dst := make([]byte, objSize)
		if found, err := mem0b.Get(k, dst); err != nil || !found || !bytes.Equal(dst, payload(k)) {
			t.Fatalf("replica 0 key %d after full resync: found=%v err=%v", k, found, err)
		}
	}
}

// TestServerShutdownDrains pins the graceful half of crash consistency: a
// draining server finishes and acks in-flight requests before hanging up,
// refuses new connections, and Shutdown returns once the drain completes.
// Every push the client saw acked must be in the store afterwards.
func TestServerShutdownDrains(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr := leanDial(t, addr, 30)

	// A concurrent pusher: once the drain starts its connection is hung up
	// after the current frame and reconnects are refused, so it stops with
	// a transport error — but every ack it collected must be durable in
	// the store.
	acked := make(chan uint64, 1024)
	pushErr := make(chan error, 1)
	go func() {
		defer close(acked)
		for k := uint64(0); ; k++ {
			if err := tr.TryPushUntil(k, []byte(fmt.Sprintf("payload-%d", k)), Deadline{}); err != nil {
				pushErr <- err
				return
			}
			acked <- k
		}
	}()
	<-acked // at least one op in flight before the drain begins

	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-pushErr; err == nil {
		t.Fatalf("pusher kept succeeding after drain")
	}
	for k := range acked {
		dst := make([]byte, len(fmt.Sprintf("payload-%d", k)))
		if found, err := store.Get(k, dst); err != nil || !found {
			t.Fatalf("acked key %d lost across drain: found=%v err=%v", k, found, err)
		}
	}

	// The drained server refuses new work entirely.
	if _, err := Dial(addr); err == nil {
		t.Fatalf("dial succeeded after shutdown")
	}
	if err := srv.Shutdown(time.Second); err != ErrClosed {
		t.Fatalf("second Shutdown: err=%v, want ErrClosed", err)
	}
}
