package bench

import (
	"fmt"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/dist"
)

// This file regenerates the memory-pressure soak (extension): a
// deterministic simulation of an application whose working set is swept
// from 0.5x to 4x of its local budget, with and without the anti-thrash
// governor, plus a phase where the local budget itself is squeezed to 50%
// mid-run (a co-tenant taking DRAM). It answers the robustness questions
// the paper's steady-state figures do not: when the working set stops
// fitting, does the runtime detect the thrash spiral, does the governor's
// throttle (prefetch off, admission gated, pressure eviction) keep
// throughput from collapsing, and does an elastic Resize shrink complete
// without deadlocking a single localization?
//
// The workload models what a TrackFM-compiled application does under
// pressure: mostly zipfian point accesses (a hot head that wants to stay
// resident), plus a pointer-chase strand whose compiler-inserted
// prefetches (issued ahead of the chase, depth 8) turn into pure cache
// pollution once memory is scarce — each speculative fill displaces a
// resident the zipfian head is about to touch. Ungoverned, that spiral is
// self-sustaining; governed, the detector's EWMA re-fault ratio trips the
// throttle and the pool stops honoring speculation. Everything runs on
// simulated cycles, so the table reproduces bit-identically.

const (
	thrashObjSize  = 256
	thrashSlots    = 256 // LocalBudget = thrashSlots * thrashObjSize
	thrashSkew     = 1.40
	thrashSeed     = 42
	thrashChase    = 1024 // pointer-chase region, in objects
	thrashChaseAt  = 2048 // first chase object id
	thrashPFDepth  = 48   // compiler-style prefetch distance on the chase
	thrashChaseMod = 64   // one chase access (and prefetch burst) per 32 ops
)

// thrashPhase is one working-set point of the soak.
type thrashPhase struct {
	name     string
	mult     float64 // working set as a multiple of the local budget
	governed bool
	shrink   bool // mid-run Resize to 50%, grow back at 3/4
}

// thrashResult is the measured outcome of one phase.
type thrashResult struct {
	ops       uint64
	opsPerSec float64
	hitRate   float64 // accesses served without a remote fetch
	ratio     float64 // final EWMA thrash ratio
	refaults  uint64
	pfSkipped uint64
	resizes   uint64
	throttled bool   // the governor's state at the end
	lost      uint64 // localizations that failed or deadlocked (gate: 0)
	corrupt   uint64 // byte-pattern mismatches after refetch (gate: 0)
}

func thrashPattern(id aifm.ObjectID) byte { return byte(uint64(id)*131 + 17) }

// runThrashPhase replays n accesses against a real pool whose budget holds
// thrashSlots objects while the working set holds mult x that.
func runThrashPhase(ph thrashPhase, n int) thrashResult {
	env := sim.NewEnv()
	budget := uint64(thrashSlots * thrashObjSize)
	p, err := aifm.NewPool(aifm.Config{
		Env:         env,
		ObjectSize:  thrashObjSize,
		HeapSize:    1 << 20,
		LocalBudget: budget,
		// The application under test protects its speculation from
		// eviction, AIFM-style — the policy that is an optimization when
		// memory is ample and the thrash spiral's accelerant when it is
		// not. The governor's pressure mode overrides it.
		ProtectPrefetch: true,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: thrash pool: %v", err))
	}
	wsObjects := int(ph.mult * thrashSlots)
	if wsObjects < 1 {
		wsObjects = 1
	}
	zipf, err := dist.NewZipf(uint64(wsObjects), thrashSkew, thrashSeed)
	if err != nil {
		panic(fmt.Sprintf("bench: thrash zipf: %v", err))
	}

	// Populate the zipfian region and the chase region with a recognizable
	// byte pattern, then start the measured run fully cold.
	pat := make([]byte, 1)
	populate := func(id aifm.ObjectID) {
		pat[0] = thrashPattern(id)
		if err := p.Access(id, 0, pat, true); err != nil {
			panic(fmt.Sprintf("bench: thrash populate: %v", err))
		}
	}
	for id := 0; id < wsObjects; id++ {
		populate(aifm.ObjectID(id))
	}
	for id := thrashChaseAt; id < thrashChaseAt+thrashChase; id++ {
		populate(aifm.ObjectID(id))
	}
	p.EvacuateAll()
	env.Reset()

	var res thrashResult
	var buf [1]byte
	chase := uint64(thrashSeed)
	access := func(id aifm.ObjectID) {
		env.Clock.Advance(env.Costs.LocalLoadStore)
		// A read-modify-write, as a guarded program makes it; the store
		// finds the object the read left resident.
		if err := p.Access(id, 0, buf[:], false); err != nil {
			res.lost++
			return
		}
		if buf[0] != thrashPattern(id) {
			res.corrupt++
		}
		if err := p.Access(id, 0, buf[:], true); err != nil {
			res.lost++
			return
		}
		res.ops++
	}
	for k := 0; k < n; k++ {
		if ph.shrink {
			// A co-tenant takes half the local DRAM for a quarter of the
			// run, then gives it back.
			if k == n/2 {
				if err := p.Resize(budget / 2); err != nil {
					panic(fmt.Sprintf("bench: thrash shrink: %v", err))
				}
			}
			if k == 3*n/4 {
				if err := p.Resize(budget); err != nil {
					panic(fmt.Sprintf("bench: thrash grow: %v", err))
				}
			}
		}
		if k%thrashChaseMod == thrashChaseMod-1 {
			// Pointer chase with compiler-inserted prefetches running
			// ahead of it. Under pressure the speculation is pollution:
			// by the time the chase arrives, the prefetched line has
			// often already been evicted to make room for the next one.
			chase = chase*1664525 + 1013904223
			id := aifm.ObjectID(thrashChaseAt + int(chase%thrashChase))
			for d := 1; d <= thrashPFDepth; d++ {
				p.Prefetch(id + aifm.ObjectID(d))
			}
			access(id)
		} else {
			access(aifm.ObjectID(zipf.Next()))
		}
		if ph.governed {
			p.Govern()
		}
	}

	c := env.Counters.Snapshot()
	if secs := env.Clock.Seconds(); secs > 0 {
		res.opsPerSec = float64(res.ops) / secs
	}
	if res.ops > 0 {
		res.hitRate = 1 - float64(c.RemoteFetches-c.PrefetchIssued)/float64(res.ops)
	}
	res.ratio = p.ThrashRatio()
	res.refaults = c.Refaults
	res.pfSkipped = c.PrefetchSkippedPressure
	res.resizes = p.Resizes()
	res.throttled = p.Throttled()
	return res
}

// thrashTable runs the memory-pressure soak.
func thrashTable(s Scale) *Table {
	n := int(s.n(24000))
	if n < 4000 {
		n = 4000
	}
	phases := []thrashPhase{
		{name: "0.5x", mult: 0.5},
		{name: "0.5x gov", mult: 0.5, governed: true},
		{name: "1x", mult: 1.0},
		{name: "1x gov", mult: 1.0, governed: true},
		{name: "1.5x", mult: 1.5},
		{name: "1.5x gov", mult: 1.5, governed: true},
		{name: "2x", mult: 2.0},
		{name: "2x gov", mult: 2.0, governed: true},
		{name: "3x", mult: 3.0},
		{name: "3x gov", mult: 3.0, governed: true},
		{name: "4x", mult: 4.0},
		{name: "4x gov", mult: 4.0, governed: true},
		{name: "2x +shrink", mult: 2.0, shrink: true},
		{name: "2x gov +shrink", mult: 2.0, governed: true, shrink: true},
	}
	t := &Table{
		ID:    "thrash",
		Title: "memory-pressure soak: thrash detection and anti-thrash control (extension)",
		Columns: []string{"phase", "ws x", "ops/s", "hit %", "thrash ratio",
			"refaults", "pf skipped", "resizes", "gov", "lost"},
		Notes: fmt.Sprintf(
			"pool of %d %dB slots; zipf(%.2f) point accesses + 1/%d pointer-chase with depth-%d compiler prefetch; %d accesses per phase; +shrink squeezes the budget to 50%% mid-run and restores it at 3/4; gates: governed 2x >= 3x ungoverned, lost = 0",
			thrashSlots, thrashObjSize, thrashSkew, thrashChaseMod, thrashPFDepth, n),
	}
	for _, ph := range phases {
		r := runThrashPhase(ph, n)
		gov := "-"
		switch {
		case ph.governed && r.throttled:
			gov = "throttled"
		case ph.governed:
			gov = "normal"
		}
		t.AddRow(ph.name, f1(ph.mult), f1(r.opsPerSec), f1(100*r.hitRate),
			f3(r.ratio), d(r.refaults), d(r.pfSkipped), d(r.resizes), gov,
			d(r.lost+r.corrupt))
	}
	t.Ops = uint64(len(phases)) * uint64(n)
	return t
}
