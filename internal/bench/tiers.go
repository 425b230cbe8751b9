package bench

import (
	"fmt"

	"trackfm/internal/aifm"
	"trackfm/internal/mem/ctier"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/dist"
)

// This file regenerates the multi-tier caching crossover study
// (extension): an overcommitted pool (working set 2x the local budget)
// swept across compressed-tier sizes and zipf skews. It answers the
// question the tier exists for: how much of a fabric round trip
// (~35K cycles for a 4 KiB object) can a decompress-from-local-DRAM hit
// (~2.4K cycles) buy back, and where is the crossover — the tier budget
// below which the spill set no longer fits compressed and the hit rate
// (and with it the speedup) collapses toward the tierless baseline. The
// S3-FIFO row pair against the clock ablation isolates the admission
// policy's contribution under one-hit-wonder traffic. Everything runs on
// simulated cycles, so the table reproduces bit-identically.

const (
	tiersObjSize = 4096
	tiersSlots   = 128 // LocalBudget = tiersSlots * tiersObjSize (512 KiB)
	tiersWSMult  = 2   // working set = tiersWSMult x the local budget
	tiersSeed    = 7
)

// tiersPhase is one (tier budget, skew, policy) point of the sweep.
type tiersPhase struct {
	name       string
	budgetFrac float64 // tier budget as a fraction of the local budget
	skew       float64
	policy     ctier.Policy
}

// tiersResult is the measured outcome of one phase.
type tiersResult struct {
	ops       uint64
	opsPerSec float64
	ramRate   float64 // accesses served from the resident arena
	tierRate  float64 // accesses served by a tier promotion
	remRate   float64 // accesses that paid a fabric round trip
	ratio     float64 // tier compression ratio (raw/stored), 0 when disabled
	p50, p99  float64 // end-to-end access latency, cycles
	corrupt   uint64  // byte-pattern mismatches after refetch (gate: 0)
}

// tiersPayload fills buf with the phase's half-compressible object body:
// the front half is a repeating id-derived pattern (LZ-friendly, like
// zeroed or structured pages), the back half is a cheap id-seeded PRNG
// stream that does not compress. The mix keeps the measured compression
// ratio in the ~2x range zswap reports, rather than the degenerate
// all-zeros case.
func tiersPayload(id aifm.ObjectID, buf []byte) {
	pat := byte(uint64(id)*131 + 17)
	half := len(buf) / 2
	for i := 0; i < half; i++ {
		buf[i] = pat
	}
	x := uint64(id)*2862933555777941757 + 3037000493
	for i := half; i < len(buf); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

// runTiersPhase replays n zipfian reads against a pool whose working set
// is tiersWSMult x its local budget, with the phase's compressed tier.
func runTiersPhase(ph tiersPhase, n int) tiersResult {
	env := sim.NewEnv()
	budget := uint64(tiersSlots * tiersObjSize)
	tierBudget := uint64(ph.budgetFrac * float64(budget))
	p, err := aifm.NewPool(aifm.Config{
		Env:              env,
		ObjectSize:       tiersObjSize,
		HeapSize:         8 << 20,
		LocalBudget:      budget,
		CompressedBudget: tierBudget,
		CompressedPolicy: ph.policy,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: tiers pool: %v", err))
	}
	wsObjects := tiersWSMult * tiersSlots
	zipf, err := dist.NewZipf(uint64(wsObjects), ph.skew, tiersSeed)
	if err != nil {
		panic(fmt.Sprintf("bench: tiers zipf: %v", err))
	}

	// Populate the working set, spill everything to the fabric, and let a
	// warm-up pass settle the hot head into the arena and the spill set
	// into the tier before the measured (cold-counter) run starts.
	buf := make([]byte, tiersObjSize)
	for id := 0; id < wsObjects; id++ {
		p.Localize(aifm.ObjectID(id), true)
		tiersPayload(aifm.ObjectID(id), buf)
		p.Write(aifm.ObjectID(id), 0, buf)
	}
	p.EvacuateAll()
	for k := 0; k < wsObjects*2; k++ {
		p.Localize(aifm.ObjectID(zipf.Next()), false)
	}
	env.Reset()
	tier := p.Far().Tier()
	tierBase := tier.Stats().Snapshot()

	var res tiersResult
	lat := obs.NewHistogram(nil)
	var got [8]byte
	for k := 0; k < n; k++ {
		id := aifm.ObjectID(zipf.Next())
		start := env.Clock.Cycles()
		env.Clock.Advance(env.Costs.LocalLoadStore)
		if _, _, err := p.TryLocalize(id, false); err != nil {
			panic(fmt.Sprintf("bench: tiers localize: %v", err))
		}
		p.Read(id, 0, got[:])
		lat.Observe(env.Clock.Cycles() - start)
		// The front half of every object is the id-derived pattern byte,
		// so the first 8 bytes verify the tier round-tripped real data.
		pat := byte(uint64(id)*131 + 17)
		for _, b := range got {
			if b != pat {
				res.corrupt++
				break
			}
		}
		res.ops++
	}

	c := env.Counters.Snapshot()
	if secs := env.Clock.Seconds(); secs > 0 {
		res.opsPerSec = float64(res.ops) / secs
	}
	td := tier.Stats().Snapshot()
	tierHits := td.Hits - tierBase.Hits
	if res.ops > 0 {
		res.tierRate = float64(tierHits) / float64(res.ops)
		res.remRate = float64(c.RemoteFetches) / float64(res.ops)
		res.ramRate = 1 - res.tierRate - res.remRate
	}
	if tb := tier.Bytes(); tb > 0 {
		res.ratio = float64(tier.RawBytes()) / float64(tb)
	}
	snap := lat.Snapshot()
	res.p50 = snap.Quantile(0.50)
	res.p99 = snap.Quantile(0.99)
	p.Close()
	return res
}

// tiersTable runs the multi-tier crossover sweep.
func tiersTable(s Scale) *Table {
	n := int(s.n(20000))
	if n < 4000 {
		n = 4000
	}
	phases := []tiersPhase{
		// Tier-size crossover at moderate skew.
		{name: "off", budgetFrac: 0, skew: 1.1},
		{name: "1/8x", budgetFrac: 0.125, skew: 1.1},
		{name: "1/4x", budgetFrac: 0.25, skew: 1.1},
		{name: "1/2x", budgetFrac: 0.5, skew: 1.1},
		{name: "1x", budgetFrac: 1, skew: 1.1},
		{name: "2x", budgetFrac: 2, skew: 1.1},
		// Skew sweep at the 1x tier point.
		{name: "off flat", budgetFrac: 0, skew: 0.8},
		{name: "1x flat", budgetFrac: 1, skew: 0.8},
		{name: "off hot", budgetFrac: 0, skew: 1.3},
		{name: "1x hot", budgetFrac: 1, skew: 1.3},
		// Admission-policy ablation at the contended points, where the
		// tier actually has to choose what to keep (at 1x and above both
		// policies converge: nothing evicts).
		{name: "1/4x clock", budgetFrac: 0.25, skew: 1.1, policy: ctier.PolicyClock},
		{name: "1/2x clock", budgetFrac: 0.5, skew: 1.1, policy: ctier.PolicyClock},
	}
	us := func(cycles float64) string { return f1(cycles / sim.Frequency * 1e6) }
	t := &Table{
		ID:    "tiers",
		Title: "multi-tier caching: compressed-RAM crossover and admission ablation (extension)",
		Columns: []string{"tier", "skew", "policy", "ops/s", "ram %", "tier %",
			"remote %", "comp ratio", "p50 us", "p99 us", "corrupt"},
		Notes: fmt.Sprintf(
			"pool of %d %dB slots, working set %dx the local budget, zipf point reads, %d accesses per phase after a warm-up lap; tier column is the compressed budget as a fraction of the local budget; gate: 1x tier >= 2x the ops/s of the off row at skew 1.1, corrupt = 0",
			tiersSlots, tiersObjSize, tiersWSMult, n),
	}
	for _, ph := range phases {
		r := runTiersPhase(ph, n)
		t.AddRow(ph.name, f2(ph.skew), ph.policy.String(), f1(r.opsPerSec),
			f1(100*r.ramRate), f1(100*r.tierRate), f1(100*r.remRate),
			f2(r.ratio), us(r.p50), us(r.p99), d(r.corrupt))
	}
	t.Ops = uint64(len(phases)) * uint64(n)
	return t
}
