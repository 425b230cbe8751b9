package compiler

import (
	"testing"

	"trackfm/internal/ir"
)

// pruneProgram: a small hot table (every word hit `reps` times) and a big
// cold array (each word hit once).
func pruneProgram(hotElems, coldElems, reps int64) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "hot", Size: ir.C(hotElems * 8)},
		&ir.Malloc{Dst: "cold", Size: ir.C(coldElems * 8)},
		ir.Loop("i", ir.C(0), ir.C(hotElems),
			ir.St(ir.Idx(ir.V("hot"), ir.V("i"), 8), ir.V("i")),
		),
		ir.Loop("j", ir.C(0), ir.C(coldElems),
			ir.St(ir.Idx(ir.V("cold"), ir.V("j"), 8), ir.V("j")),
		),
		ir.Let("acc", ir.C(0)),
		ir.Loop("r", ir.C(0), ir.C(reps),
			ir.Loop("i", ir.C(0), ir.C(hotElems),
				ir.Let("acc", ir.B(ir.OpAnd,
					ir.Add(ir.V("acc"), ir.Ld(ir.Idx(ir.V("hot"), ir.V("i"), 8))),
					ir.C(0xFFFFF))),
			),
		),
		ir.Loop("j", ir.C(0), ir.C(coldElems),
			ir.Let("acc", ir.B(ir.OpAnd,
				ir.Add(ir.V("acc"), ir.Ld(ir.Idx(ir.V("cold"), ir.V("j"), 8))),
				ir.C(0xFFFFF))),
		),
		&ir.Return{E: ir.V("acc")},
	))
	return p
}

// fakeProfile fabricates the allocation profile a real profiling run
// would collect for pruneProgram.
func fakeProfile(p *ir.Program, hotElems, coldElems, reps int64) *Profile {
	prof := NewProfile()
	main := p.Funcs["main"]
	hot := main.Body[0].(*ir.Malloc)
	cold := main.Body[1].(*ir.Malloc)
	prof.RecordAlloc(hot, uint64(hotElems*8))
	prof.RecordAlloc(cold, uint64(coldElems*8))
	for i := int64(0); i < hotElems*(reps+1); i++ {
		prof.RecordAllocAccess(hot)
	}
	for i := int64(0); i < coldElems*2; i++ {
		prof.RecordAllocAccess(cold)
	}
	return prof
}

func TestPruneMarksHotSmallSites(t *testing.T) {
	p := pruneProgram(64, 4096, 100)
	prof := fakeProfile(p, 64, 4096, 100)
	n := PruneRemotable(p, prof)
	if n != 1 {
		t.Fatalf("pinned %d sites, want 1", n)
	}
	main := p.Funcs["main"]
	if !main.Body[0].(*ir.Malloc).PinLocal {
		t.Fatalf("hot site not pinned")
	}
	if main.Body[1].(*ir.Malloc).PinLocal {
		t.Fatalf("cold site pinned")
	}
}

func TestPruneRespectsPinBudget(t *testing.T) {
	// A hot allocation larger than the pin budget must stay remotable.
	p := pruneProgram(64<<10, 128, 100) // hot array is 512 KB
	prof := fakeProfile(p, 64<<10, 128, 100)
	if n := PruneRemotable(p, prof); n != 0 {
		t.Fatalf("pinned %d sites, want 0 (over budget)", n)
	}
}

func TestPruneColdSitesStay(t *testing.T) {
	p := pruneProgram(64, 4096, 0) // nothing hot
	prof := fakeProfile(p, 64, 4096, 0)
	prof.AllocAccesses[p.Funcs["main"].Body[0].(*ir.Malloc)] = 64 // 1 access/word
	if n := PruneRemotable(p, prof); n != 0 {
		t.Fatalf("pinned %d cold sites", n)
	}
}

func TestPruneNilProfile(t *testing.T) {
	p := pruneProgram(64, 128, 1)
	if n := PruneRemotable(p, nil); n != 0 {
		t.Fatalf("nil profile pinned %d sites", n)
	}
}

func TestPinnedSitesSkipGuardsAndLibcTransform(t *testing.T) {
	p := pruneProgram(64, 4096, 100)
	main := p.Funcs["main"]
	main.Body[0].(*ir.Malloc).PinLocal = true
	stats, err := Compile(p, Options{Chunking: ChunkNone})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if stats.AllocSitesPinned != 1 {
		t.Fatalf("AllocSitesPinned = %d", stats.AllocSitesPinned)
	}
	if stats.AllocSitesTransformed != 1 {
		t.Fatalf("AllocSitesTransformed = %d (cold site only)", stats.AllocSitesTransformed)
	}
	// The hot loop's accesses must be unguarded now: of the 4 static
	// accesses (hot st, cold st, hot ld, cold ld), two touch the pinned
	// allocation.
	if stats.UnguardedAccesses != 2 || stats.GuardedAccesses != 2 {
		t.Fatalf("guarded/unguarded = %d/%d, want 2/2",
			stats.GuardedAccesses, stats.UnguardedAccesses)
	}
}
