// The flaky-fabric integration test lives in an external test package so
// it can drive the aifm runtime over the real fabric without an import
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

// TestFaultyFabricWorkloadIntegrity is the acceptance test for the
// fault-tolerance layer: a 10k-operation read/write workload runs through
// an AIFM pool over a real TCP server, with a FaultLink injecting 10%
// transient failures on every remote operation and the server killed and
// restarted mid-run. The workload must complete with zero silent
// zero-fills — every op either sees exactly the bytes it last wrote or a
// typed error — and the runtime's fault counters must reconcile exactly
// with the injector's.
func TestFaultyFabricWorkloadIntegrity(t *testing.T) {
	store := remote.NewStore()
	srv := fabric.NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}

	tr, err := fabric.DialWith(addr, fabric.DialOptions{
		// Generous transport-level budget: server-restart outages are
		// absorbed here, below the fault injector, so they never show
		// up in the pool's (reconciled) fault counters.
		Retry: fabric.RetryPolicy{
			MaxAttempts: 10,
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
			// 8 attempts at 10% drop: the chance any op exhausts the
			// budget is 1e-8, negligible over 10k ops — so every
			// injected drop is followed by a successful retry and the
			// counters reconcile exactly.
			RemoteRetries: 8,
		},
		ObjectSize:  objSize,
		HeapSize:    objSize * nObjects,
		LocalBudget: objSize * nSlots,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}

	// expected mirrors what each object's first byte must read back as;
	// version 0 means never written (reads as fresh zeros).
	expected := make([]byte, nObjects)
	rng := sim.NewRNG(2024)
	restartAt := nOps / 2
	zeroFills := 0
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
		addrOff, _, err := pool.TryLocalize(id, write)
		if err != nil {
			t.Fatalf("op %d: TryLocalize(%d) surfaced %v — transient faults should have been retried", op, id, err)
		}
		_ = addrOff
		var got [1]byte
		pool.Read(id, 0, got[:])
		if got[0] != expected[id] {
			zeroFills++
			t.Errorf("op %d: object %d read %d, want %d (silent corruption)", op, id, got[0], expected[id])
			if zeroFills > 5 {
				t.FailNow()
			}
		}
		if write {
			stamp := byte(rng.Intn(255) + 1)
			pool.Write(id, 0, []byte{stamp})
			expected[id] = stamp
		}
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
	t.Logf("workload done: injector=%+v transport=%v pool: fetchFaults=%d pushFaults=%d evictions=%d",
		fs, tr.Stats(), env.Counters.RemoteFetchFaults, env.Counters.RemotePushFaults, env.Counters.Evacuations)
}
