package irgen

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/interp"
	"trackfm/internal/sim"
)

// FuzzDifferential turns the seeded generator into a fuzz target: for any
// seed, the generated program must terminate, and the TrackFM-compiled
// run must agree with the local-only reference. `go test -fuzz
// FuzzDifferential ./internal/ir/irgen` explores further seeds; the seed
// corpus keeps it as a regression test under plain `go test`.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		ref := Generate(seed)
		res, err := interp.Run(ref, interp.NewLocalBackend(sim.NewEnv()),
			interp.Options{MaxSteps: 100_000_000})
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}

		prog := Generate(seed)
		if _, err := compiler.Compile(prog, compiler.Options{
			Chunking: compiler.ChunkCostModel, ObjectSize: 256, Prefetch: true, O1: true,
		}); err != nil {
			t.Fatalf("seed %d compile: %v", seed, err)
		}
		heap := HeapBytes()
		rt, err := core.NewRuntime(core.Config{
			Env: sim.NewEnv(), ObjectSize: 256,
			HeapSize: heap, LocalBudget: heap / 16,
		})
		if err != nil {
			t.Fatalf("seed %d runtime: %v", seed, err)
		}
		got, err := interp.Run(prog, interp.NewTrackFMBackend(rt),
			interp.Options{MaxSteps: 100_000_000})
		if err != nil {
			t.Fatalf("seed %d trackfm: %v", seed, err)
		}
		if got.Return != res.Return {
			t.Fatalf("seed %d: trackfm %d != local %d", seed, got.Return, res.Return)
		}
	})
}
