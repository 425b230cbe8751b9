package interp

// End-to-end test of the PGO remotability-pruning extension: profile,
// prune, recompile, and verify the pinned program is both correct and
// faster under memory pressure.

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// hotColdProgram: a small table consulted on every iteration of a scan
// over a big cold array — the memcached-slab-like pattern where pinning
// the hot index pays.
func hotColdProgram() *ir.Program {
	const hotElems, coldElems = 64, 16384
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "hot", Size: ir.C(hotElems * 8)},
		&ir.Malloc{Dst: "cold", Size: ir.C(coldElems * 8)},
		ir.Loop("i", ir.C(0), ir.C(hotElems),
			ir.St(ir.Idx(ir.V("hot"), ir.V("i"), 8), ir.Mul(ir.V("i"), ir.C(3))),
		),
		ir.Loop("j", ir.C(0), ir.C(coldElems),
			ir.St(ir.Idx(ir.V("cold"), ir.V("j"), 8), ir.V("j")),
		),
		ir.Let("acc", ir.C(0)),
		ir.Loop("j", ir.C(0), ir.C(coldElems),
			// Every cold element consults the hot table.
			ir.Let("h", ir.Ld(ir.Idx(ir.V("hot"), ir.B(ir.OpAnd, ir.V("j"), ir.C(hotElems-1)), 8))),
			ir.Let("acc", ir.B(ir.OpAnd,
				ir.Add(ir.V("acc"),
					ir.Add(ir.V("h"), ir.Ld(ir.Idx(ir.V("cold"), ir.V("j"), 8)))),
				ir.C(0xFFFFFF))),
		),
		&ir.Return{E: ir.V("acc")},
	))
	return p
}

func runPruned(t *testing.T, prune bool) (int64, *sim.Env) {
	t.Helper()
	prog := hotColdProgram()
	prof := compiler.NewProfile()
	if _, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{Profile: prof}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	if prune {
		if n := compiler.PruneRemotable(prog, prof); n != 1 {
			t.Fatalf("pinned %d sites, want 1 (the hot table)", n)
		}
	}
	if _, err := compiler.Compile(prog, compiler.Options{
		Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true, Profile: prof,
	}); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	env := sim.NewEnv()
	rt, err := core.NewRuntime(core.Config{
		Env: env, ObjectSize: 4096,
		HeapSize: 1 << 20, LocalBudget: 32 << 10, // heavy pressure
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	res, err := Run(prog, NewTrackFMBackend(rt), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Return, env
}

func TestPruningPreservesResults(t *testing.T) {
	plain, _ := runPruned(t, false)
	pruned, _ := runPruned(t, true)
	if plain != pruned {
		t.Fatalf("pruning changed the result: %d vs %d", plain, pruned)
	}
}

func TestPruningSpeedsUpHotColdWorkload(t *testing.T) {
	_, envPlain := runPruned(t, false)
	_, envPruned := runPruned(t, true)
	if envPruned.Clock.Cycles() >= envPlain.Clock.Cycles() {
		t.Fatalf("pruning did not help: %d vs %d cycles",
			envPruned.Clock.Cycles(), envPlain.Clock.Cycles())
	}
	// The hot table's accesses must have left the guard counts.
	if envPruned.Counters.Guards() >= envPlain.Counters.Guards() {
		t.Fatalf("pruning did not reduce guards: %d vs %d",
			envPruned.Counters.Guards(), envPlain.Counters.Guards())
	}
}

func TestProfileRecordsAllocationSites(t *testing.T) {
	prog := hotColdProgram()
	prof := compiler.NewProfile()
	if _, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{Profile: prof}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	main := prog.Funcs["main"]
	hot := main.Body[0].(*ir.Malloc)
	cold := main.Body[1].(*ir.Malloc)
	if prof.AllocBytes[hot] != 64*8 || prof.AllocBytes[cold] != 16384*8 {
		t.Fatalf("alloc bytes = %d/%d", prof.AllocBytes[hot], prof.AllocBytes[cold])
	}
	hotDens := prof.AccessesPerWord(hot)
	coldDens := prof.AccessesPerWord(cold)
	if hotDens <= coldDens {
		t.Fatalf("hot density %v not above cold %v", hotDens, coldDens)
	}
	if hotDens < 100 {
		t.Fatalf("hot density %v implausibly low (expected ~257)", hotDens)
	}
}
