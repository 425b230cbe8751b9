package bench

import (
	"trackfm/internal/interp"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/kv"
)

// kvSkews is Fig. 16's x-axis.
var kvSkews = []float64{1.01, 1.1, 1.2, 1.3}

// kvConfig scales the paper's 12 GB / 100M-key memcached run.
func kvConfig(s Scale, skew float64) kv.Config {
	return kv.Config{
		Keys: int(s.n(20000)),
		Gets: int(s.n(30000)),
		Skew: skew,
		Seed: 11,
	}
}

func kvWorkingSet(cfg kv.Config) uint64 {
	return uint64(cfg.Keys) * (kv.EstimatedItemBytes(cfg.Seed, 4096) + 16)
}

// fig16 regenerates Figure 16: memcached throughput vs Zipf skew for
// TrackFM, Fastswap, and all-local (a); guards vs faults (b); and total
// data transferred (c).
func fig16(s Scale) *Table {
	t := &Table{
		ID:    "fig16",
		Title: "Memcached: throughput, guards/faults, data moved vs Zipf skew",
		Columns: []string{"zipf skew", "TFM KOps/s", "FS KOps/s", "local KOps/s",
			"TFM guards", "FS faults", "TFM moved(MB)", "FS moved(MB)"},
		Notes: "paper: TrackFM 1.3-1.7x over Fastswap; Fastswap closes the gap as skew rises; 66x vs 15x working-set amplification",
	}
	for _, skew := range kvSkews {
		cfg := kvConfig(s, skew)
		ws := kvWorkingSet(cfg)
		heap := ws * 4
		// The paper constrains local memory to 1 GB of a 12 GB working
		// set; at simulation scale the same page-count discreteness
		// requires a slightly larger fraction for the hot set to be
		// representable at all.
		b := budget(ws, 1.0/6.0)

		runKV := func(sys interp.System) *sim.Env {
			be := direct(sys, 64, heap, b)
			if _, err := kv.Run(be, cfg); err != nil {
				panic("bench: kv: " + err.Error())
			}
			return be.Env()
		}
		envT := runKV(interp.TrackFM)
		envF := runKV(interp.Fastswap)
		envL := runKV(interp.Local)

		kops := func(env *sim.Env) float64 {
			return float64(cfg.Gets) / env.Clock.Seconds() / 1e3
		}
		t.AddRow(f2(skew),
			f1(kops(envT)), f1(kops(envF)), f1(kops(envL)),
			d(envT.Counters.Guards()), d(envF.Counters.Faults()),
			mb(envT.Counters.BytesFetched), mb(envF.Counters.BytesFetched))
	}
	return t
}
