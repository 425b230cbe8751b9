// Package obs_test hosts the cross-subsystem metrics-name lint: it
// registers every counter block in the tree into one registry (an external
// test package, so it may import the subsystems that import obs). Any name
// violating obs.NamePattern panics at registration; any duplicate identity
// panics too — so `go test -run TestMetricNamesLint ./internal/obs` (wired
// into `make vet`) is the enforcement point for the exposition namespace.
package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"trackfm/internal/aifm"
	"trackfm/internal/autotune"
	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// nameRE is the oracle ValidName's byte loop is held to.
var nameRE = regexp.MustCompile(obs.NamePattern)

func TestMetricNamesLint(t *testing.T) {
	reg := obs.NewRegistry()

	// Runtime counters, clock gauge, and latency histograms: registering
	// an Env's metrics into its own registry happens lazily; force it and
	// then re-register the same definitions into the shared lint registry
	// by snapshotting the per-env registry's ids.
	env := sim.NewEnv()
	envSnap := env.Metrics().Snapshot()

	// Fabric: transport-level and server-side counters.
	var ts fabric.Stats
	ts.Register(reg, obs.Label{Key: "transport", Value: "tcp"})
	store := remote.NewStore()
	srv := fabric.NewServer(store)
	srv.Stats().Register(reg)
	store.Register(reg)

	// Remote durability: WAL, snapshot, and recovery counters. Labeled so
	// the embedded store block does not collide with the plain store above.
	ds, err := remote.OpenDurable(remote.DurableConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.Register(reg, obs.Label{Key: "node", Value: "durable"})

	// Compressed-at-rest store: same gauge names as the plain store plus
	// the raw-byte and ratio series, so it needs a distinguishing label.
	remote.NewCompressedStore().Register(reg, obs.Label{Key: "node", Value: "compressed"})

	// Pool health (degraded flag, occupancy gauges, thrash ratio, resizes)
	// and the anti-thrash governor's state/transition series. The
	// CompressedBudget pulls the tier's trackfm_ctier_* block into the
	// pool's RegisterObs, so those names are linted too.
	pool, err := aifm.NewPool(aifm.Config{
		Env: env, ObjectSize: 64, HeapSize: 1 << 16, LocalBudget: 1 << 12,
		CompressedBudget: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.RegisterObs(reg)
	gov, err := autotune.NewGovernor(autotune.GovernorConfig{Pool: pool, Clock: &env.Clock})
	if err != nil {
		t.Fatal(err)
	}
	gov.RegisterObs(reg)

	// The shared wire pool's counters.
	bufpool.Wire.Register(reg, obs.Label{Key: "pool", Value: "wire"})

	// Every id in both registries must carry a NamePattern-conforming
	// bare name (registration already panics on violations; this loop is
	// the belt to that suspender, and catches names that sneak in through
	// snapshots).
	check := func(snap obs.Snapshot) {
		ids := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
		for id := range snap.Counters {
			ids = append(ids, id)
		}
		for id := range snap.Gauges {
			ids = append(ids, id)
		}
		for id := range snap.Histograms {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			t.Fatal("no metrics registered")
		}
		for _, id := range ids {
			name := id
			if i := strings.IndexByte(id, '{'); i >= 0 {
				name = id[:i]
			}
			if !obs.ValidName(name) {
				t.Errorf("metric %q violates %s", name, obs.NamePattern)
			}
			if !nameRE.MatchString(name) {
				t.Errorf("ValidName accepted %q, which %s rejects", name, obs.NamePattern)
			}
		}
	}
	check(envSnap)
	check(reg.Snapshot())

	// The prefetch stream's series are what a perf claim about it quotes
	// (requests and frames per flush); they must stay registered.
	snap := reg.Snapshot()
	for _, id := range []string{
		`trackfm_transport_pipelined_fetches_total{transport="tcp"}`,
		`trackfm_transport_stream_flushes_total{transport="tcp"}`,
		`trackfm_server_flushes_total`,
		// Likewise the write-behind window's: pushes per carry, forwards.
		`trackfm_transport_carried_pushes_total{transport="tcp"}`,
		`trackfm_transport_carry_exchanges_total{transport="tcp"}`,
		`trackfm_pool_write_behind_forwards_total`,
	} {
		if _, ok := snap.Counters[id]; !ok {
			t.Errorf("counter %s is not registered", id)
		}
	}
	for _, id := range []string{"trackfm_pool_pending_prefetches", "trackfm_pool_write_behind_parked"} {
		if _, ok := snap.Gauges[id]; !ok {
			t.Errorf("gauge %s is not registered", id)
		}
	}
}
