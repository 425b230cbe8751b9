package bench

import (
	"fmt"

	"trackfm/internal/autotune"
	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/stream"
)

// ablation quantifies the design choices DESIGN.md calls out, beyond what
// the paper's own figures isolate:
//
//   - the object state table (vs AIFM's two-reference metadata lookup),
//   - the compiler-directed prefetch window depth,
//   - the three chunking policies side by side on one workload.
//
// Everything runs STREAM Sum at 25% local memory, the regime where both
// guard and fetch costs matter. The table and the window depth are the
// runtime's alone — no compile option expresses them — so this is the one
// experiment that builds its runtime by hand instead of through run; the
// object size still comes from the compiled program.
func ablation(s Scale) *Table {
	t := &Table{
		ID:      "ablation",
		Title:   "Design ablations on STREAM Sum @ 25% local memory",
		Columns: []string{"configuration", "cycles", "vs best"},
	}
	n := streamN(s)
	ws := stream.WorkingSetBytes(stream.Sum, n)
	heap := ws * 2
	bud := budget(ws, 0.25)

	base := fullTrackFM
	noPf := base
	noPf.Prefetch = false
	naive := compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}
	all := base
	all.Chunking = compiler.ChunkAll

	cfgs := []struct {
		name string
		opts compiler.Options
		rt   core.Config // the runtime-only knobs; the rest is filled in below
	}{
		{"full TrackFM (OST, chunk, prefetch d=8)", base, core.Config{}},
		{"prefetch depth 1", base, core.Config{PrefetchDepth: 1}},
		{"no prefetch", noPf, core.Config{}},
		{"chunk all loops", all, core.Config{}},
		{"no chunking (naive guards, OST)", naive, core.Config{}},
		{"no chunking, no object state table", naive, core.Config{NoOST: true}},
	}
	t.Notes = "the OST effect shows on guard-heavy (unchunked) runs; prefetch depth >= 1 " +
		"is equivalent here because the latency model hides the full fixed cost once any " +
		"prefetch is in flight"

	results := make([]uint64, len(cfgs))
	best := ^uint64(0)
	for i, c := range cfgs {
		prog := stream.Program(stream.Sum, n)
		mustCompile(prog, c.opts)
		env := sim.NewEnv()
		rc := c.rt
		rc.Env, rc.ObjectSize, rc.HeapSize, rc.LocalBudget = env, prog.ObjectSize, heap, bud
		rt, err := core.NewRuntime(rc)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		if _, err := interp.Run(prog, interp.NewTrackFMBackend(rt), interp.Options{}); err != nil {
			panic(fmt.Sprintf("bench: ablation %q: %v", c.name, err))
		}
		results[i] = env.Clock.Cycles()
		if results[i] < best {
			best = results[i]
		}
	}
	for i, c := range cfgs {
		t.AddRow(c.name, d(results[i]), "x"+f2(float64(results[i])/float64(best)))
	}
	return t
}

// autotuneTable regenerates the §3.2 autotuning proposal: exhaustive search
// over the paper's object-size space for a streaming and a fine-grained
// random workload, showing the tuner lands on the Fig. 9/Fig. 10 winners
// automatically.
func autotuneTable(s Scale) *Table {
	t := &Table{
		ID:      "autotune",
		Title:   "Object-size autotuning (§3.2 extension): cycles per candidate",
		Columns: []string{"workload", "64B", "128B", "256B", "512B", "1KB", "2KB", "4KB", "chosen"},
		Notes:   "streaming should choose large objects (Fig. 10); random fine-grained access small ones (Fig. 9)",
	}
	n := s.n(1 << 14)
	streamWS := stream.WorkingSetBytes(stream.Sum, n)

	gatherN := s.n(1 << 15)
	gather := func() *ir.Program {
		p := ir.NewProgram()
		p.AddFunc(ir.Fn("main", nil,
			&ir.Malloc{Dst: "a", Size: ir.C(gatherN * 8)},
			ir.Loop("i", ir.C(0), ir.C(gatherN),
				ir.St(ir.Idx(ir.V("a"), ir.V("i"), 8), ir.V("i")),
			),
			ir.Let("x", ir.C(12345)),
			ir.Let("acc", ir.C(0)),
			ir.Loop("t", ir.C(0), ir.C(s.n(20000)),
				ir.Let("x", ir.B(ir.OpAnd,
					ir.Add(ir.Mul(ir.V("x"), ir.C(1103515245)), ir.C(12345)),
					ir.C(0xFFFFFF))),
				ir.Let("acc", ir.B(ir.OpAnd,
					ir.Add(ir.V("acc"),
						ir.Ld(ir.Idx(ir.V("a"), ir.B(ir.OpAnd, ir.V("x"), ir.C(gatherN-1)), 8))),
					ir.C(0xFFFFFF))),
			),
			&ir.Return{E: ir.V("acc")},
		))
		return p
	}

	runs := []struct {
		name string
		cfg  autotune.Config
	}{
		{"stream-sum", autotune.Config{
			Build:       func() *ir.Program { return stream.Program(stream.Sum, n) },
			HeapSize:    streamWS * 2,
			LocalBudget: budget(streamWS, 0.25),
		}},
		{"random-gather", autotune.Config{
			Build:       gather,
			HeapSize:    uint64(gatherN) * 8 * 2,
			LocalBudget: budget(uint64(gatherN)*8, 0.125),
		}},
	}
	for _, r := range runs {
		res, err := autotune.Run(r.cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: autotune %s: %v", r.name, err))
		}
		row := []string{r.name}
		for _, tr := range res.Trials {
			row = append(row, d(tr.Cycles))
		}
		row = append(row, fmt.Sprintf("%dB", res.Best))
		t.AddRow(row...)
	}
	return t
}
