package bench

import (
	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/workloads/kmeans"
)

// kmeansConfig scales the paper's 30M-point run down while keeping the
// structural property Fig. 8 depends on: nested low-trip-count loops
// (Dims, K small) inside a hot point loop.
func kmeansConfig(s Scale) kmeans.Config {
	return kmeans.Config{
		Points:     s.n(1500),
		Dims:       64,
		K:          8,
		Iterations: 2,
	}
}

// fig8 regenerates Figure 8: speedup over the no-chunking baseline for
// (a) chunking applied to all loops indiscriminately and (b) chunking
// applied only to loops the profiler + cost model approve.
func fig8(s Scale) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "k-means: selective vs indiscriminate loop chunking (speedup vs baseline)",
		Columns: []string{"local mem %", "all loops", "high-density only"},
		Notes:   "paper: all-loops averages ~4x slowdown (0.25x); cost model ~2.5x speedup",
	}
	cfg := kmeansConfig(s)
	ws := cfg.WorkingSetBytes()
	heap := ws * 2

	for _, f := range localFractions {
		b := budget(ws, f)

		baseline := run(interp.TrackFM, kmeans.Program(cfg),
			compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096, Prefetch: true}, heap, b)

		all := run(interp.TrackFM, kmeans.Program(cfg),
			compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096, Prefetch: true}, heap, b)

		// Profile-guided selective chunking: RunOn fills the profile from
		// a local run of the instance it then compiles.
		selective := run(interp.TrackFM, kmeans.Program(cfg), compiler.Options{
			Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true, Profile: compiler.NewProfile(),
		}, heap, b)

		base := float64(baseline.Clock.Cycles())
		t.AddRow(f2(f),
			f2(base/float64(all.Clock.Cycles())),
			f2(base/float64(selective.Clock.Cycles())))
	}
	return t
}
