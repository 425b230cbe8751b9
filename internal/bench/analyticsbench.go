package bench

import (
	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/workloads/analytics"
)

// analyticsConfig scales the paper's 31 GB taxi analysis.
func analyticsConfig(s Scale) analytics.Config {
	return analytics.Config{Rows: s.n(6000)}
}

// analyticsSweep is the local-memory axis of Figs. 14-15, which the paper
// extends below 20%.
var analyticsSweep = []float64{0.1, 0.25, 0.5, 0.75, 1.0}

// fig14 regenerates Figure 14: analytics slowdown versus local-only for
// TrackFM, Fastswap, and AIFM (a), plus TrackFM guard counts and Fastswap
// fault counts (b).
func fig14(s Scale) *Table {
	t := &Table{
		ID:    "fig14",
		Title: "Analytics: slowdown vs local-only, and guards/faults",
		Columns: []string{"local mem %", "TrackFM", "Fastswap", "AIFM",
			"TFM guards", "FS faults"},
		Notes: "paper: TrackFM within 10% of AIFM when memory-constrained; Fastswap converges near 75% local",
	}
	cfg := analyticsConfig(s)
	ws := cfg.WorkingSetBytes()
	heap := ws * 2
	localCycles := float64(runLocal(analytics.Program(cfg)).Clock.Cycles())
	for _, f := range analyticsSweep {
		b := budget(ws, f)
		tfm := run(interp.TrackFM, analytics.Program(cfg), fullTrackFM, heap, b)
		fs := run(interp.Fastswap, analytics.Program(cfg), compiler.Options{}, heap, b)
		aifm := run(interp.AIFM, analytics.Program(cfg), fullTrackFM, heap, b)
		t.AddRow(f2(f),
			f2(float64(tfm.Clock.Cycles())/localCycles),
			f2(float64(fs.Clock.Cycles())/localCycles),
			f2(float64(aifm.Clock.Cycles())/localCycles),
			d(tfm.Counters.Guards()),
			d(fs.Counters.Faults()))
	}
	return t
}

// fig15 regenerates Figure 15: the loop-chunking policy comparison on the
// analytics application — baseline (no chunking), all loops, and
// high-density loops only — as slowdown versus local-only.
func fig15(s Scale) *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Analytics: chunking policy slowdown vs local-only",
		Columns: []string{"local mem %", "baseline", "all loops", "high-density only"},
		Notes:   "paper: all-loops chunking hurts (low-density aggregation loops); cost model wins",
	}
	cfg := analyticsConfig(s)
	ws := cfg.WorkingSetBytes()
	heap := ws * 2
	localCycles := float64(runLocal(analytics.Program(cfg)).Clock.Cycles())
	for _, f := range analyticsSweep {
		b := budget(ws, f)
		baseline := run(interp.TrackFM, analytics.Program(cfg),
			compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096, Prefetch: true}, heap, b)
		all := run(interp.TrackFM, analytics.Program(cfg),
			compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096, Prefetch: true}, heap, b)
		// Profile-guided: RunOn fills the profile from a local run of the
		// instance it then compiles.
		sel := run(interp.TrackFM, analytics.Program(cfg), compiler.Options{
			Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true, Profile: compiler.NewProfile(),
		}, heap, b)
		t.AddRow(f2(f),
			f2(float64(baseline.Clock.Cycles())/localCycles),
			f2(float64(all.Clock.Cycles())/localCycles),
			f2(float64(sel.Clock.Cycles())/localCycles))
	}
	return t
}
