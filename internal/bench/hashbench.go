package bench

import (
	"trackfm/internal/interp"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/hashmap"
)

// hashmapConfig scales the paper's 2 GB / 50M-lookup zipfian hashmap run.
func hashmapConfig(s Scale) hashmap.Config {
	return hashmap.Config{
		Entries: int(s.n(6000)),
		Lookups: int(s.n(20000)),
		Skew:    1.02,
		Seed:    42,
	}
}

// runHashmap runs the workload on be and returns the env it charged.
func runHashmap(be interp.Backend, cfg hashmap.Config) *sim.Env {
	if _, err := hashmap.Run(be, cfg); err != nil {
		panic("bench: hashmap: " + err.Error())
	}
	return be.Env()
}

// fig9 regenerates Figure 9: throughput of the zipfian STL-map workload
// by object size, (a) sweeping local memory and (b) the bar chart at 25%
// local (the final row).
func fig9(s Scale) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Hashmap throughput (MOps/s) by object size and local memory %",
		Columns: []string{"local mem %", "4KB", "2KB", "1KB", "512B", "256B"},
		Notes:   "paper: small objects win for fine-grained, low-spatial-locality access",
	}
	cfg := hashmapConfig(s)
	ws := cfg.WorkingSetBytes()
	heap := ws * 4
	fractions := append(append([]float64{}, localFractions...), 0.25)
	for i, f := range fractions {
		label := f2(f)
		if i == len(fractions)-1 {
			label = "0.25 (9b)"
		}
		row := []string{label}
		for _, obj := range objectSizes {
			env := runHashmap(direct(interp.TrackFM, obj, heap, budget(ws, f)), cfg)
			mops := float64(cfg.Lookups) / env.Clock.Seconds() / 1e6
			row = append(row, f3(mops))
		}
		t.AddRow(row...)
	}
	return t
}

// fig13 regenerates Figure 13: the I/O-amplification comparison between
// TrackFM with 64B objects and Fastswap's 4KB pages on the hashmap —
// execution time (a) and total data fetched (b).
func fig13(s Scale) *Table {
	t := &Table{
		ID:    "fig13",
		Title: "Hashmap: TrackFM 64B objects vs Fastswap 4KB pages",
		Columns: []string{"local mem %", "TFM time(s)", "FS time(s)",
			"TFM fetched(MB)", "FS fetched(MB)", "TFM ampl", "FS ampl"},
		Notes: "paper: Fastswap amplifies 43x vs TrackFM 2.3x; ~12x average speedup",
	}
	cfg := hashmapConfig(s)
	ws := cfg.WorkingSetBytes()
	heap := ws * 4
	for _, f := range []float64{0.05, 0.25, 0.5, 0.75, 1.0} {
		b := budget(ws, f)
		tfm := runHashmap(direct(interp.TrackFM, 64, heap, b), cfg)
		fs := runHashmap(direct(interp.Fastswap, 0, heap, b), cfg)
		t.AddRow(f2(f),
			f3(tfm.Clock.Seconds()), f3(fs.Clock.Seconds()),
			mb(tfm.Counters.BytesFetched), mb(fs.Counters.BytesFetched),
			f2(tfm.Counters.Amplification(ws)), f2(fs.Counters.Amplification(ws)))
	}
	return t
}
