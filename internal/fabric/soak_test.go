// The replica-failover soak test lives in the external test package so it
// can drive the aifm runtime over a replicated fabric without an import
// cycle (aifm imports fabric).
package fabric_test

import (
	"testing"
	"time"

	"trackfm/internal/aifm"
	"trackfm/internal/fabric"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// TestReplicaFailoverSoak is the acceptance test for the replication
// layer: a 10k-operation read/write workload runs through an AIFM pool
// over a fabric.ReplicaSet of three real TCP servers, every replica link
// injecting seeded 10% drops and 2% fetch corruption, and replica 0 —
// the preferred read replica — killed mid-run and restarted with an EMPTY
// store (total data loss on that node). Requirements:
//
//   - every operation completes and reads exactly the bytes it last wrote
//     (zero silent zero-fills, zero surfaced corruption);
//   - every injected corruption is detected (Stats.ChecksumFaults) —
//     none reaches the mutator;
//   - the dead replica's breaker opens, half-open probes fire on the
//     simulated clock, and after restart the replica is resynced and
//     closes again;
//   - after a final evacuate + drain, all three stores hold identical,
//     correct copies of every written object.
func TestReplicaFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	const (
		nReplicas = 3
		objSize   = 64
		nObjects  = 256
		nSlots    = 32
		nOps      = 10_000
		killAt    = 4_000
		restartAt = 5_000
		// Simulated cycles charged per workload op; breaker timing below
		// is expressed in these units.
		cyclesPerOp = 1_000
		openTimeout = 200_000 // 200 ops between half-open probes
	)

	stores := make([]*remote.Store, nReplicas)
	servers := make([]*fabric.Server, nReplicas)
	addrs := make([]string, nReplicas)
	trs := make([]*fabric.TCPTransport, nReplicas)
	links := make([]*fabric.FaultLink, nReplicas)
	members := make([]fabric.ErrorTransport, nReplicas)
	for i := 0; i < nReplicas; i++ {
		stores[i] = remote.NewStore()
		servers[i] = fabric.NewServer(stores[i])
		addr, err := servers[i].ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("replica %d: ListenAndServe: %v", i, err)
		}
		addrs[i] = addr
		tr, err := fabric.DialWith(addr, fabric.DialOptions{
			// Lean pacing: a dead replica must fail fast so the breaker
			// sees it, not burn seconds in transport-level backoff.
			Retry: fabric.RetryPolicy{
				BaseBackoff: time.Millisecond,
				MaxBackoff:  4 * time.Millisecond,
			},
			OpTimeout: time.Second,
			Seed:      uint64(100 + i),
		})
		if err != nil {
			t.Fatalf("replica %d: DialWith: %v", i, err)
		}
		defer tr.Close()
		trs[i] = tr
		links[i] = fabric.NewFaultLink(tr, fabric.FaultConfig{
			Seed:        uint64(200 + i),
			DropRate:    0.10,
			CorruptRate: 0.02,
		})
		members[i] = links[i]
	}

	env := sim.NewEnv()
	pool, err := aifm.NewPool(aifm.Config{
		Env: env,
		RemoteConfig: fabric.RemoteConfig{
			Replicas: members,
			Replication: fabric.ReplicaConfig{
				Quorum:           2,
				FailureThreshold: 6,
				OpenTimeout:      openTimeout,
				Seed:             9,
			},
			RemoteRetries: 8,
		},
		ObjectSize:  objSize,
		HeapSize:    objSize * nObjects,
		LocalBudget: objSize * nSlots,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	rs := pool.Far().ReplicaSet()
	if rs == nil {
		t.Fatal("pool built from Replicas did not expose a ReplicaSet")
	}

	// expected mirrors each object's first byte; 0 means never written
	// (reads as fresh zeros).
	expected := make([]byte, nObjects)
	rng := sim.NewRNG(2024)
	zeroFills := 0
	for op := 0; op < nOps; op++ {
		env.Clock.Advance(cyclesPerOp)
		switch op {
		case killAt:
			// Crash the preferred replica mid-workload.
			servers[0].Close()
		case restartAt:
			// Bring it back on the same address with an EMPTY store:
			// everything it held is gone and must come back via resync
			// and read-repair.
			stores[0] = remote.NewStore()
			servers[0] = fabric.NewServer(stores[0])
			if _, err := servers[0].ListenAndServe(addrs[0]); err != nil {
				t.Fatalf("replica 0 restart: %v", err)
			}
		}
		id := aifm.ObjectID(rng.Intn(nObjects))
		write := rng.Intn(2) == 0
		win, _, err := pool.Pin(id, write)
		if err != nil {
			t.Fatalf("op %d: Pin(%d) surfaced %v — the replica set should have absorbed this", op, id, err)
		}
		if win[0] != expected[id] {
			zeroFills++
			t.Errorf("op %d: object %d read %d, want %d (silent corruption)", op, id, win[0], expected[id])
			if zeroFills > 5 {
				t.FailNow()
			}
		}
		if write {
			stamp := byte(rng.Intn(255) + 1)
			win[0] = stamp
			expected[id] = stamp
		}
		pool.Unpin(id)
	}

	// Push every surviving local object out, then drain the health
	// machinery until every replica is closed and owes nothing.
	pool.EvacuateAll()
	drained := false
	for round := 0; round < 100; round++ {
		env.Clock.Advance(openTimeout)
		rs.Probe()
		drained = true
		for _, h := range rs.Health() {
			if h.State != fabric.BreakerClosed || h.MissedKeys > 0 {
				drained = false
			}
		}
		if drained {
			break
		}
	}
	if !drained {
		t.Fatalf("replica set did not drain: health = %v", rs.Health())
	}

	// --- Fault and recovery accounting ---------------------------------
	var corruptions, drops uint64
	for i, l := range links {
		fs := l.Stats()
		corruptions += fs.Corruptions
		drops += fs.Drops
		t.Logf("replica %d: injector %+v", i, fs)
	}
	if drops == 0 || corruptions == 0 {
		t.Fatalf("injectors fired drops=%d corruptions=%d — test is vacuous", drops, corruptions)
	}
	// Every fetched payload is checksum-verified against the version
	// record, so every injected corruption must have been detected. The
	// count may exceed the injected total: a replica that missed a write
	// can serve a stale-but-uncorrupted blob on last-resort reads, which
	// is detected the same way.
	if got := rs.Stats().ChecksumFaults(); got < corruptions {
		t.Fatalf("ChecksumFaults = %d, want >= %d injected corruptions", got, corruptions)
	}
	if zeroFills != 0 {
		t.Fatalf("%d silent zero-fills", zeroFills)
	}
	rst := rs.ReplicaStats()
	if rst.BreakerOpens() == 0 {
		t.Fatal("replica 0 died for 1000 ops but no breaker opened")
	}
	if rst.Probes() == 0 || rst.ProbeFails() == 0 {
		t.Fatalf("probes=%d probeFails=%d — the outage window should have produced failed probes", rst.Probes(), rst.ProbeFails())
	}
	if rst.ResyncedKeys()+rst.ReadRepairs() == 0 {
		t.Fatal("restarting a replica with an empty store must trigger resync or read-repair")
	}
	if got := trs[0].Stats().Reconnects(); got < 1 {
		t.Fatalf("replica 0 Reconnects = %d, want >= 1 after restart", got)
	}

	// --- End-state: all replicas hold identical correct data -----------
	// After EvacuateAll plus drain, every written object must be present
	// and correct on all three stores — including replica 0, which lost
	// everything mid-run.
	for id := 0; id < nObjects; id++ {
		if expected[id] == 0 {
			continue // never written; may legitimately be absent
		}
		for r, st := range stores {
			buf := make([]byte, objSize)
			found, err := st.Get(uint64(id), buf)
			if err != nil {
				t.Fatalf("replica %d object %d: store error %v", r, id, err)
			}
			if !found {
				t.Fatalf("replica %d lost object %d", r, id)
			}
			if buf[0] != expected[id] {
				t.Fatalf("replica %d object %d holds %d, want %d", r, id, buf[0], expected[id])
			}
		}
	}

	t.Logf("soak done: rs=%v replica=%v health=%v", rs.Stats(), rst, rs.Health())
	for i := range servers {
		servers[i].Close()
	}
}
