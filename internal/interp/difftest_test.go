package interp

// Differential testing: random programs must compute identical results on
// every backend, under every chunking policy, with and without O1, and
// under memory pressure that forces evictions. This is the strongest
// correctness net in the repository — any disagreement between the guard
// path, the cursor protocol, the evacuator, the paging baseline, and the
// library-mode runtime shows up as a checksum mismatch with a seed to
// reproduce it.

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/ir/irgen"
	"trackfm/internal/sim"
)

const diffSeeds = 40

func diffReference(t *testing.T, seed uint64) int64 {
	t.Helper()
	prog := irgen.Generate(seed)
	res, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{MaxSteps: 100_000_000})
	if err != nil {
		t.Fatalf("seed %d local: %v", seed, err)
	}
	return res.Return
}

func TestDifferentialTrackFMAllModes(t *testing.T) {
	heap := irgen.HeapBytes()
	for seed := uint64(0); seed < diffSeeds; seed++ {
		want := diffReference(t, seed)
		for _, mode := range []compiler.ChunkMode{compiler.ChunkNone, compiler.ChunkAll, compiler.ChunkCostModel} {
			for _, o1 := range []bool{false, true} {
				for _, objSize := range []int{256, 4096} {
					// Tight budget forces evictions and write-backs.
					for _, budget := range []uint64{heap / 16, heap} {
						prog := irgen.Generate(seed)
						if _, err := compiler.Compile(prog, compiler.Options{
							Chunking: mode, ObjectSize: objSize, Prefetch: true, O1: o1,
						}); err != nil {
							t.Fatalf("seed %d: compile: %v", seed, err)
						}
						rt, err := core.NewRuntime(core.Config{
							Env: sim.NewEnv(), ObjectSize: objSize,
							HeapSize: heap, LocalBudget: budget,
						})
						if err != nil {
							t.Fatalf("seed %d: runtime: %v", seed, err)
						}
						res, err := Run(prog, NewTrackFMBackend(rt), Options{MaxSteps: 100_000_000})
						if err != nil {
							t.Fatalf("seed %d mode=%v o1=%v obj=%d budget=%d: %v",
								seed, mode, o1, objSize, budget, err)
						}
						if res.Return != want {
							t.Fatalf("seed %d mode=%v o1=%v obj=%d budget=%d: got %d, want %d",
								seed, mode, o1, objSize, budget, res.Return, want)
						}
					}
				}
			}
		}
	}
}

func TestDifferentialFastswap(t *testing.T) {
	heap := irgen.HeapBytes()
	for seed := uint64(0); seed < diffSeeds; seed++ {
		want := diffReference(t, seed)
		for _, budget := range []uint64{heap / 8, heap} {
			prog := irgen.Generate(seed)
			if _, err := compiler.Compile(prog, compiler.Options{Chunking: compiler.ChunkNone}); err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			sw, err := fastswap.New(fastswap.Config{
				Env: sim.NewEnv(), HeapSize: heap, LocalBudget: budget,
			})
			if err != nil {
				t.Fatalf("seed %d: fastswap: %v", seed, err)
			}
			res, err := Run(prog, NewFastswapBackend(sw), Options{MaxSteps: 100_000_000})
			if err != nil {
				t.Fatalf("seed %d budget=%d: %v", seed, budget, err)
			}
			if res.Return != want {
				t.Fatalf("seed %d budget=%d: got %d, want %d", seed, budget, res.Return, want)
			}
		}
	}
}

func TestDifferentialAIFM(t *testing.T) {
	heap := irgen.HeapBytes()
	for seed := uint64(0); seed < diffSeeds; seed++ {
		want := diffReference(t, seed)
		prog := irgen.Generate(seed)
		if _, err := compiler.Compile(prog, compiler.Options{
			Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true,
		}); err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		be, err := NewAIFMBackend(sim.NewEnv(), 4096, heap, heap/8)
		if err != nil {
			t.Fatalf("seed %d: aifm: %v", seed, err)
		}
		res, err := Run(prog, be, Options{MaxSteps: 100_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Return != want {
			t.Fatalf("seed %d: got %d, want %d", seed, res.Return, want)
		}
	}
}
