package analytics

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/sim"
)

var small = Config{Rows: 3000}

// runOn puts a fresh Program(cfg) on sys over a 64 MiB heap.
func runOn(t *testing.T, sys interp.System, cfg Config, opts compiler.Options, budget uint64) (int64, *sim.Env) {
	t.Helper()
	res, env, _, err := interp.RunOn(sys, Program(cfg), opts, 1<<26, budget)
	if err != nil {
		t.Fatalf("%v run: %v", sys, err)
	}
	return res.Return, env
}

func localChecksum(t *testing.T, cfg Config) int64 {
	t.Helper()
	got, _ := runOn(t, interp.Local, cfg, compiler.Options{}, 0)
	return got
}

func TestChecksumStableAcrossBackends(t *testing.T) {
	want := localChecksum(t, small)
	if want == 0 {
		t.Fatalf("degenerate checksum 0")
	}

	got, _ := runOn(t, interp.TrackFM, small, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}, 1<<20)
	if got != want {
		t.Fatalf("trackfm checksum %d != local %d", got, want)
	}

	if got, _ := runOn(t, interp.Fastswap, small, compiler.Options{}, 1<<20); got != want {
		t.Fatalf("fastswap checksum %d != local %d", got, want)
	}
}

func TestAIFMBackendAgrees(t *testing.T) {
	want := localChecksum(t, small)
	// The AIFM comparator runs the hand-ported version: no guards, but
	// the chunk annotations mark where the programmer would use library
	// iterators.
	got, env := runOn(t, interp.AIFM, small, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}, 1<<20)
	if got != want {
		t.Fatalf("aifm checksum %d != local %d", got, want)
	}
	if env.Counters.Guards() != 0 {
		t.Fatalf("AIFM comparator executed guards")
	}
}

func TestAIFMFasterThanTrackFMButWithin2x(t *testing.T) {
	// Fig. 14 shape at unit-test scale: AIFM (no guards) is the
	// ceiling; TrackFM must be close behind (paper: within 10% when
	// memory-constrained; we assert a loose band here, the calibrated
	// check lives in the bench harness).
	cfg := Config{Rows: 4000}
	budget := cfg.WorkingSetBytes() / 4

	opts := compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}
	_, envT := runOn(t, interp.TrackFM, cfg, opts, budget)
	_, envA := runOn(t, interp.AIFM, cfg, opts, budget)

	tfm := float64(envT.Clock.Cycles())
	aifm := float64(envA.Clock.Cycles())
	// Both run on one runtime and pool and TrackFM pays guards AIFM does
	// not, so it cannot be meaningfully faster (Fig. 14 has it behind at
	// every point), and the paper's headline claim bounds it from above:
	// near parity when memory-constrained.
	if tfm < 0.9*aifm {
		t.Fatalf("TrackFM (%v) dramatically beat the AIFM ceiling (%v): cost accounting broken", tfm, aifm)
	}
	if tfm > 2*aifm {
		t.Fatalf("TrackFM %.0f vs AIFM %.0f: more than 2x apart", tfm, aifm)
	}
}

func TestIndiscriminateChunkingHurtsAggregations(t *testing.T) {
	// Fig. 15 shape: chunking all loops (including the small per-group
	// aggregation loops) is slower than cost-model chunking.
	cfg := Config{Rows: 3000}
	budget := cfg.WorkingSetBytes() // all local: isolates guard effects

	_, envAll := runOn(t, interp.TrackFM, cfg, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096}, budget)
	_, envCM := runOn(t, interp.TrackFM, cfg, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096}, budget)

	if envCM.Clock.Cycles() >= envAll.Clock.Cycles() {
		t.Fatalf("cost-model chunking (%d) not faster than all-loops (%d)",
			envCM.Clock.Cycles(), envAll.Clock.Cycles())
	}
}

func TestGroupLoopsAreSmall(t *testing.T) {
	// The Q4 structure must actually produce small per-group loops
	// (below the chunking crossover) — otherwise Fig. 15 is vacuous.
	prog := Program(small)
	prof := compiler.NewProfile()
	if _, err := interp.Run(prog, interp.NewLocalBackend(sim.NewEnv()), interp.Options{Profile: prof}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	smallLoops := 0
	for l := range prof.Entries {
		if tr, ok := prof.AvgTrips(l); ok && tr > 0 && tr < 100 {
			smallLoops++
		}
	}
	if smallLoops == 0 {
		t.Fatalf("no small aggregation loops observed")
	}
}

func TestWorkingSetBytes(t *testing.T) {
	if small.WorkingSetBytes() < uint64(4*small.Rows*8) {
		t.Fatalf("WorkingSetBytes too small")
	}
}
