package hashmap

import (
	"testing"

	"trackfm/internal/interp"
	"trackfm/internal/sim"
)

func backend(t *testing.T, sys interp.System, objSize int, heap, local uint64) interp.Backend {
	t.Helper()
	be, err := interp.NewBackend(sys, sim.NewEnv(), objSize, heap, local)
	if err != nil {
		t.Fatalf("NewBackend(%v): %v", sys, err)
	}
	return be
}

func localBackend(t *testing.T) interp.Backend { return backend(t, interp.Local, 0, 0, 0) }

func TestTablePutGet(t *testing.T) {
	acc := localBackend(t)
	tbl, err := Build(acc, 100)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for key := uint64(1); key <= 100; key++ {
		v, ok := tbl.Get(key)
		if !ok {
			t.Fatalf("key %d missing", key)
		}
		if v != 2*key+1 {
			t.Fatalf("key %d = %d, want %d", key, v, 2*key+1)
		}
	}
	if _, ok := tbl.Get(9999); ok {
		t.Fatalf("absent key found")
	}
}

func TestBuildValidation(t *testing.T) {
	acc := localBackend(t)
	if _, err := Build(acc, 0); err == nil {
		t.Fatalf("zero entries accepted")
	}
	if _, err := Run(acc, Config{Entries: 10, Lookups: 0}); err == nil {
		t.Fatalf("zero lookups accepted")
	}
}

func TestRunChecksumsAgreeAcrossBackends(t *testing.T) {
	cfg := Config{Entries: 500, Lookups: 3000, Skew: 1.02, Seed: 7}

	local, err := Run(localBackend(t), cfg)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if local.Hits != cfg.Lookups {
		t.Fatalf("local hits = %d, want %d", local.Hits, cfg.Lookups)
	}

	tfm, err := Run(backend(t, interp.TrackFM, 64, 1<<22, 1<<14), cfg)
	if err != nil {
		t.Fatalf("trackfm run: %v", err)
	}
	if tfm.CheckSum != local.CheckSum || tfm.Hits != local.Hits {
		t.Fatalf("trackfm result %+v != local %+v", tfm, local)
	}

	fs, err := Run(backend(t, interp.Fastswap, 0, 1<<22, 1<<15), cfg)
	if err != nil {
		t.Fatalf("fastswap run: %v", err)
	}
	if fs.CheckSum != local.CheckSum {
		t.Fatalf("fastswap checksum %d != local %d", fs.CheckSum, local.CheckSum)
	}
}

func TestSmallObjectsReduceDataTransferred(t *testing.T) {
	// Fig. 9/13 shape: under memory pressure with a zipfian point-access
	// pattern, a 64B object size must move far less data than 4KB pages.
	cfg := Config{Entries: 4000, Lookups: 8000, Skew: 1.02, Seed: 3}
	heap := uint64(1 << 24)
	budget := cfg.WorkingSetBytes() / 4 // 25% local

	accSmall := backend(t, interp.TrackFM, 64, heap, budget)
	if _, err := Run(accSmall, cfg); err != nil {
		t.Fatalf("trackfm 64B run: %v", err)
	}
	smallBytes := accSmall.Env().Counters.BytesFetched

	accFS := backend(t, interp.Fastswap, 0, heap, budget)
	if _, err := Run(accFS, cfg); err != nil {
		t.Fatalf("fastswap run: %v", err)
	}
	fsBytes := accFS.Env().Counters.BytesFetched

	if smallBytes == 0 || fsBytes == 0 {
		t.Fatalf("no data transferred; memory pressure too low (small=%d fs=%d)", smallBytes, fsBytes)
	}
	if fsBytes < smallBytes*4 {
		t.Fatalf("I/O amplification not visible: fastswap %d vs trackfm-64B %d bytes", fsBytes, smallBytes)
	}
}

func TestSmallObjectsFasterForZipfianAccess(t *testing.T) {
	// Fig. 9b: at 25% local memory, smaller objects win for this workload.
	cfg := Config{Entries: 4000, Lookups: 8000, Skew: 1.02, Seed: 3}
	heap := uint64(1 << 24)
	budget := cfg.WorkingSetBytes() / 4

	run := func(objSize int) uint64 {
		acc := backend(t, interp.TrackFM, objSize, heap, budget)
		if _, err := Run(acc, cfg); err != nil {
			t.Fatalf("run(%d): %v", objSize, err)
		}
		return acc.Env().Clock.Cycles()
	}
	small := run(64)
	large := run(4096)
	if small >= large {
		t.Fatalf("64B objects (%d cycles) not faster than 4KB (%d) for zipfian hashmap", small, large)
	}
}

func TestWorkingSetBytes(t *testing.T) {
	cfg := Config{Entries: 100, Lookups: 1000}
	// 256 slots (2*100 rounded to pow2) * 16B + 1000 * 8B trace.
	if got := cfg.WorkingSetBytes(); got != 256*16+8000 {
		t.Fatalf("WorkingSetBytes = %d", got)
	}
}

func TestHashKeySpreads(t *testing.T) {
	seen := make(map[uint64]bool)
	for k := uint64(1); k <= 1000; k++ {
		seen[hashKey(k)&1023] = true
	}
	if len(seen) < 600 {
		t.Fatalf("hash spreads over only %d/1024 buckets", len(seen))
	}
}
