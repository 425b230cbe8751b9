package bench

import (
	"trackfm/internal/aifm"
	"trackfm/internal/core"
	"trackfm/internal/sim"
)

// table1 regenerates Table 1: TrackFM fast-path vs slow-path guard costs
// with the object local, cached vs uncached OST lines. Costs are measured
// by executing one guarded access in each configuration and subtracting
// the raw load/store cost.
func table1(Scale) *Table {
	t := &Table{
		ID:      "table1",
		Title:   "TrackFM guard costs when the object is local (cycles)",
		Columns: []string{"TrackFM Guard Type", "Cached", "Uncached"},
		Notes:   "paper: 21/297, 21/309, 144/453, 159/432",
	}

	measure := func(write, slow, cached bool) uint64 {
		env := sim.NewEnv()
		rt := newRuntime(env, 4096, 1<<20, 1<<20)
		p := rt.MustMalloc(8)
		// Localize the object so the guard finds it local.
		rt.StoreU64(p, 1)
		if slow {
			// Force the slow path with the object still resident by
			// setting the evacuation-candidate bit, the state a guard
			// hits when it races a collection point (§3.3).
			id := core.Ptr(p).HeapOffset() >> 12
			rt.Pool().Table()[id] |= aifm.MetaE
		}
		if cached {
			// Warm the OST line with a preliminary access of the same
			// kind, then measure.
			if !slow {
				rt.LoadU64(p)
			} else {
				rt.LoadU64(p) // slow access; line warm afterwards
			}
		} else {
			rt.FlushOSTCache()
		}
		before := env.Clock.Cycles()
		if write {
			rt.StoreU64(p, 2)
		} else {
			rt.LoadU64(p)
		}
		return env.Clock.Cycles() - before - env.Costs.LocalLoadStore
	}

	t.AddRow("TrackFM fast-path read guard", d(measure(false, false, true)), d(measure(false, false, false)))
	t.AddRow("TrackFM fast-path write guard", d(measure(true, false, true)), d(measure(true, false, false)))
	t.AddRow("TrackFM slow-path read guard", d(measure(false, true, true)), d(measure(false, true, false)))
	t.AddRow("TrackFM slow-path write guard", d(measure(true, true, true)), d(measure(true, true, false)))
	return t
}

// table2 regenerates Table 2: primitive overheads of TrackFM vs Fastswap
// with the data local vs remote.
func table2(Scale) *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Primitive overheads, TrackFM vs Fastswap (cycles)",
		Columns: []string{"Runtime Event", "Local Cost", "Remote Cost"},
		Notes:   "paper: Fastswap 1.3K/34K, 1.3K/35K; TrackFM 453/35K, 432/35K",
	}

	swapFault := func(write bool) (uint64, uint64) {
		env := sim.NewEnv()
		sw := newSwap(env, 1<<20, 1<<16)
		off := sw.MustMalloc(4096)
		// Local: first touch is a zero-fill fault satisfied locally.
		before := env.Clock.Cycles()
		if write {
			sw.StoreU64(off, 1)
		} else {
			sw.LoadU64(off)
		}
		local := env.Clock.Cycles() - before - env.Costs.LocalLoadStore
		// Remote: evacuate, then fault the page back over the network.
		sw.StoreU64(off, 1)
		sw.EvacuateAll()
		before = env.Clock.Cycles()
		if write {
			sw.StoreU64(off, 2)
		} else {
			sw.LoadU64(off)
		}
		remote := env.Clock.Cycles() - before - env.Costs.LocalLoadStore
		return local, remote
	}

	tfmSlow := func(write bool) (uint64, uint64) {
		env := sim.NewEnv()
		rt := newRuntime(env, 4096, 1<<20, 1<<20)
		p := rt.MustMalloc(8)
		rt.StoreU64(p, 1)
		// Local slow path: object resident but flagged for evacuation;
		// cold OST line (Table 2 reports the uncached costs).
		id := core.Ptr(p).HeapOffset() >> 12
		rt.Pool().Table()[id] |= aifm.MetaE
		rt.FlushOSTCache()
		before := env.Clock.Cycles()
		if write {
			rt.StoreU64(p, 2)
		} else {
			rt.LoadU64(p)
		}
		local := env.Clock.Cycles() - before - env.Costs.LocalLoadStore
		// Remote slow path: evacuate, then access.
		rt.Pool().Table()[id] &^= aifm.MetaE
		rt.EvacuateAll()
		rt.FlushOSTCache()
		before = env.Clock.Cycles()
		if write {
			rt.StoreU64(p, 3)
		} else {
			rt.LoadU64(p)
		}
		remote := env.Clock.Cycles() - before - env.Costs.LocalLoadStore
		return local, remote
	}

	frl, frr := swapFault(false)
	fwl, fwr := swapFault(true)
	trl, trr := tfmSlow(false)
	twl, twr := tfmSlow(true)
	t.AddRow("Fastswap read fault", d(frl), d(frr))
	t.AddRow("Fastswap write fault", d(fwl), d(fwr))
	t.AddRow("TrackFM slow-path read guard", d(trl), d(trr))
	t.AddRow("TrackFM slow-path write guard", d(twl), d(twr))
	return t
}

// fig6 regenerates Figure 6: the loop-chunking cost-model crossover. For
// each element count (a loop confined to a single 8 KB object), it
// measures the speedup of the chunked transformation over the naive one
// and reports the model's predicted crossover.
func fig6(Scale) *Table {
	costs := sim.DefaultCosts()
	t := &Table{
		ID:      "fig6",
		Title:   "Loop-chunking speedup vs elements per object (crossover)",
		Columns: []string{"elems/object", "speedup", "chunking wins"},
		Notes:   "paper: empirical crossover ~730; model predicts " + f1(core.CrossoverElements(&costs)),
	}

	measure := func(elems uint64) float64 {
		// 8 KB objects hold up to 1024 8-byte elements; everything
		// resident so only guard costs differ.
		env := sim.NewEnv()
		rt := newRuntime(env, 8192, 1<<20, 1<<20)
		p := rt.MustMalloc(8192)
		for i := uint64(0); i < elems; i++ {
			rt.StoreU64(p.Add(i*8), i)
		}
		env.Clock.Reset()
		for i := uint64(0); i < elems; i++ {
			rt.LoadU64(p.Add(i * 8))
		}
		naive := env.Clock.Cycles()

		env.Clock.Reset()
		cur := rt.NewCursor(p, 8, false)
		for i := uint64(0); i < elems; i++ {
			cur.LoadU64(i)
		}
		cur.Close()
		chunked := env.Clock.Cycles()
		return float64(naive) / float64(chunked)
	}

	for _, elems := range []uint64{100, 250, 500, 650, 730, 800, 900, 1000} {
		s := measure(elems)
		wins := "no"
		if s > 1.0 {
			wins = "yes"
		}
		t.AddRow(d(elems), f3(s), wins)
	}
	return t
}

// compileCosts regenerates the §4.6 compilation-cost observations: code
// size growth (paper: average 2.4x) and compile-time expansion (paper:
// under 6x) across the IR workloads.
func compileCosts(s Scale) *Table {
	t := &Table{
		ID:      "compile",
		Title:   "Compilation costs per workload (§4.6)",
		Columns: []string{"workload", "mem accesses", "guarded", "code size", "compile time"},
		Notes:   "paper: code size x2.4 average, compile time < 6x standard LLVM",
	}
	for _, w := range irWorkloads(s) {
		stats := mustCompile(w.build(), fullTrackFM)
		t.AddRow(w.name,
			d(uint64(stats.MemAccessesAfter)),
			d(uint64(stats.GuardedAccesses)),
			"x"+f2(stats.CodeSizeFactor),
			stats.CompileTime.String())
	}
	return t
}
