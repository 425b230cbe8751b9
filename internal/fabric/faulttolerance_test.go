// The flaky-fabric integration test lives in an external test package so
// it can drive the aifm runtime over the real fabric without an import
// cycle (aifm imports fabric).
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

// TestFaultyFabricWorkloadIntegrity is the acceptance test for the
// fault-tolerance layer: a 10k-operation read/write workload runs through
// an AIFM pool over a real TCP server, with a FaultLink injecting 10%
// transient failures on every remote operation and the server killed and
// restarted mid-run. The workload must complete with zero silent
// zero-fills — every op either sees exactly the bytes it last wrote or a
// typed error — and the runtime's fault counters must reconcile exactly
// with the injector's. A 10% drop rate outruns what the retry budget earns
// (0.1 token per operation), so the bucket drains: from then on an op whose
// attempt is dropped fails with its typed error instead of being re-issued,
// and every such failure must be one the budget denied.
func TestFaultyFabricWorkloadIntegrity(t *testing.T) {
	store := remote.NewStore()
	srv := fabric.NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}

	tr, err := fabric.DialWith(addr, fabric.DialOptions{
		// The server restart is absorbed here, below the fault injector,
		// by the transport's one resend over a socket the peer closed
		// while it sat idle, so it never shows up in the pool's
		// (reconciled) fault counters.
		Retry: fabric.RetryPolicy{
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		OpTimeout: 2 * time.Second,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()

	fl := fabric.NewFaultLink(tr, fabric.FaultConfig{Seed: 42, DropRate: 0.10})

	env := sim.NewEnv()
	const (
		objSize  = 64
		nObjects = 256
		nSlots   = 32
		nOps     = 10_000
	)
	pool, err := aifm.NewPool(aifm.Config{
		Env: env,
		RemoteConfig: fabric.RemoteConfig{
			Transport: fl,
			// 8 attempts at 10% drop: an op that keeps its tokens
			// practically never runs out of attempts (1e-8), so every
			// op that fails is one the retry budget refused.
			RemoteRetries: 8,
		},
		ObjectSize:  objSize,
		HeapSize:    objSize * nObjects,
		LocalBudget: objSize * nSlots,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	reg := obs.NewRegistry()
	pool.RegisterObs(reg)

	// expected mirrors what each object's first byte must read back as;
	// version 0 means never written (reads as fresh zeros).
	expected := make([]byte, nObjects)
	rng := sim.NewRNG(2024)
	restartAt := nOps / 2
	zeroFills, refused := 0, uint64(0)
	for op := 0; op < nOps; op++ {
		if op == restartAt {
			// Remote-node crash: kill the server mid-workload and
			// bring a new process up on the same address, backed by
			// the same (persistent) store. In-flight and subsequent
			// ops ride the transport's reconnect machinery.
			srv.Close()
			srv = fabric.NewServer(store)
			if _, err := srv.ListenAndServe(addr); err != nil {
				t.Fatalf("server restart: %v", err)
			}
		}
		id := aifm.ObjectID(rng.Intn(nObjects))
		write := rng.Intn(2) == 0
		win, _, err := pool.Pin(id, write)
		if err != nil {
			// Not re-issued: the object stays far, unchanged, and later
			// ops still read back exactly what it holds.
			if !errors.Is(err, fabric.ErrRemoteUnavailable) {
				t.Fatalf("op %d: Pin(%d) surfaced %v, want a typed ErrRemoteUnavailable", op, id, err)
			}
			refused++
			continue
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
	srv.Close()

	// Reconcile: every injected fault must have been observed (and
	// survived) by the pool — fetch faults plus push faults, nothing
	// dropped on the floor and nothing double-counted.
	fs := fl.Stats()
	observed := env.Counters.RemoteFetchFaults + env.Counters.RemotePushFaults
	if fs.InjectedFailures() == 0 {
		t.Fatalf("fault injector fired zero faults over %d ops (%d transport ops) — test is vacuous", nOps, fs.Ops)
	}
	if observed != fs.InjectedFailures() {
		t.Fatalf("runtime observed %d faults (fetch=%d push=%d), injector reports %d (%+v)",
			observed, env.Counters.RemoteFetchFaults, env.Counters.RemotePushFaults, fs.InjectedFailures(), fs)
	}
	// The server restart must have exercised the reconnect machinery.
	if got := tr.Stats().Reconnects(); got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1 after server restart", got)
	}
	// Every op that surfaced an error did so because the retry budget
	// refused its re-issue, and at this drop rate the budget must refuse.
	denied := reg.Snapshot().Counter("trackfm_retry_budget_denied_total")
	if denied == 0 {
		t.Fatalf("retry budget denied nothing at a 10%% drop rate — the bypass is back")
	}
	if refused > denied {
		t.Fatalf("%d ops failed, but the retry budget denied only %d re-issues", refused, denied)
	}
	t.Logf("workload done: injector=%+v transport=%v pool: fetchFaults=%d pushFaults=%d evictions=%d failedOps=%d budgetDenied=%d",
		fs, tr.Stats(), env.Counters.RemoteFetchFaults, env.Counters.RemotePushFaults, env.Counters.Evacuations, refused, denied)
}
