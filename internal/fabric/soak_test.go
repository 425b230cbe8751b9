// The fault soak lives in the external test package so it can drive the
// aifm runtime over a real TCP server without an import cycle (aifm
// imports fabric).
package fabric_test

import (
	"errors"
	"testing"
	"time"

	"trackfm/internal/aifm"
	"trackfm/internal/fabric"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// TestFaultSoak is the acceptance test for the memory node's fault
// handling end to end: a 10k-operation read/write workload runs through an
// AIFM pool over one real TCP server, its link injecting seeded 10% drops
// and 2% fetch corruption, and the server closed at op 4000 and listening
// again at op 5000 on the same store (a node that crashed and came back
// with its memory). Requirements:
//
//   - every operation reads back exactly the bytes it last wrote, or fails
//     with a typed ErrRemoteUnavailable or ErrIntegrity;
//   - outside the dead window an operation fails only where the retry
//     budget denied a re-issue: failed ops ≤ trackfm_retry_budget_denied_total
//     booked outside it;
//   - the dead window refuses misses and serves residents;
//   - the injectors fired, and every injected drop and corruption was a
//     failed attempt the runtime saw — none reached the mutator;
//   - the transport reconnected after the restart;
//   - after EvacuateAll, the store holds every written object.
func TestFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	const (
		objSize   = 64
		nObjects  = 256
		nSlots    = 32
		nOps      = 10_000
		killAt    = 4_000
		restartAt = 5_000
	)

	store := remote.NewStore()
	srv := fabric.NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer func() { srv.Close() }()
	tr, err := fabric.DialWith(addr, fabric.DialOptions{
		// Lean pacing: a dead server must fail fast, not burn seconds in
		// transport-level backoff.
		Retry: fabric.RetryPolicy{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
		},
		OpTimeout: time.Second,
		Seed:      100,
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()
	link := fabric.NewFaultLink(tr, fabric.FaultConfig{
		Seed:        200,
		DropRate:    0.10,
		CorruptRate: 0.02,
	})

	env := sim.NewEnv()
	pool, err := aifm.NewPool(aifm.Config{
		Env: env,
		RemoteConfig: fabric.RemoteConfig{
			Transport:     link,
			RemoteRetries: 8,
		},
		ObjectSize:  objSize,
		HeapSize:    objSize * nObjects,
		LocalBudget: objSize * nSlots,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.RegisterObs(reg)
	denied := func() uint64 { return reg.Snapshot().Counter("trackfm_retry_budget_denied_total") }

	// expected mirrors each object's first byte; 0 means never written
	// (reads as fresh zeros).
	expected := make([]byte, nObjects)
	rng := sim.NewRNG(2024)
	var (
		wrongReads                 int
		failedLive, failedDead     int // typed refusals outside / inside the dead window
		residentDead               int // ops the dead window served from local memory
		deniedAtKill, deniedAtBack uint64
	)
	for op := 0; op < nOps; op++ {
		switch op {
		case killAt:
			deniedAtKill = denied()
			srv.Close()
		case restartAt:
			deniedAtBack = denied()
			srv = fabric.NewServer(store)
			if _, err := srv.ListenAndServe(addr); err != nil {
				t.Fatalf("restart: %v", err)
			}
		}
		dead := op >= killAt && op < restartAt
		id := aifm.ObjectID(rng.Intn(nObjects))
		write := rng.Intn(2) == 0
		win, _, err := pool.Pin(id, write)
		if err != nil {
			if !errors.Is(err, fabric.ErrRemoteUnavailable) && !errors.Is(err, fabric.ErrIntegrity) {
				t.Fatalf("op %d: Pin(%d) = %v, want a typed ErrRemoteUnavailable or ErrIntegrity", op, id, err)
			}
			if dead {
				failedDead++
			} else {
				failedLive++
			}
			continue
		}
		if dead {
			residentDead++
		}
		if win[0] != expected[id] {
			wrongReads++
			t.Errorf("op %d: object %d read %d, want %d", op, id, win[0], expected[id])
			if wrongReads > 5 {
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
	pool.EvacuateAll()

	fs := link.Stats()
	deniedLive := denied() - (deniedAtBack - deniedAtKill)
	t.Logf("injector %+v; outside the dead window %d failed ops, %d denied re-issues; inside %d failed, %d resident hits; transport %v",
		fs, failedLive, deniedLive, failedDead, residentDead, tr.Stats())
	if fs.Drops == 0 || fs.Corruptions == 0 {
		t.Fatalf("injectors fired drops=%d corruptions=%d — the soak is vacuous", fs.Drops, fs.Corruptions)
	}
	if wrongReads != 0 {
		t.Fatalf("%d reads returned bytes other than the last write", wrongReads)
	}
	// Every injected fault failed an attempt the runtime counted: a
	// corruption handed over as data would be missing here.
	seen := sim.Load(&env.Counters.RemoteFetchFaults) + sim.Load(&env.Counters.RemotePushFaults)
	if injected := fs.Drops + fs.Corruptions; seen < injected {
		t.Fatalf("runtime saw %d failed attempts, fewer than the %d faults injected", seen, injected)
	}
	if uint64(failedLive) > deniedLive {
		t.Fatalf("%d ops failed outside the dead window, but the retry budget denied only %d re-issues there", failedLive, deniedLive)
	}
	if failedDead == 0 || residentDead == 0 {
		t.Fatalf("dead window: %d refused, %d served from local memory; want both > 0", failedDead, residentDead)
	}
	if got := tr.Stats().Reconnects(); got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1 after the restart", got)
	}

	// Everything written is far now, on the one store that outlived its
	// server.
	for id := 0; id < nObjects; id++ {
		if expected[id] == 0 {
			continue // never written; may legitimately be absent
		}
		buf := make([]byte, objSize)
		found, err := store.Get(uint64(id), buf)
		if err != nil || !found {
			t.Fatalf("object %d: store Get = (%v, %v), want it present", id, found, err)
		}
		if buf[0] != expected[id] {
			t.Fatalf("object %d holds %d, want %d", id, buf[0], expected[id])
		}
	}
}
