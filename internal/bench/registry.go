package bench

import (
	"fmt"
	"sort"

	"trackfm/internal/compiler"
	"trackfm/internal/ir"
	"trackfm/internal/workloads/analytics"
	"trackfm/internal/workloads/kmeans"
	"trackfm/internal/workloads/nas"
	"trackfm/internal/workloads/stream"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run regenerates the table at the given problem-size scale.
	Run func(Scale) *Table
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "guard costs", table1},
		{"table2", "primitive overheads vs Fastswap", table2},
		{"table3", "NAS inventory", table3},
		{"table4", "comparison with prior work", table4},
		{"fig6", "cost-model crossover", fig6},
		{"fig7", "loop chunking on STREAM", fig7},
		{"fig8", "selective chunking on k-means", fig8},
		{"fig9", "object size on hashmap", fig9},
		{"fig10", "object size on STREAM", fig10},
		{"fig11", "prefetching on STREAM", fig11},
		{"fig12", "TrackFM vs Fastswap on STREAM", fig12},
		{"fig13", "I/O amplification on hashmap", fig13},
		{"fig14", "analytics vs Fastswap and AIFM", fig14},
		{"fig15", "chunking policies on analytics", fig15},
		{"fig16", "memcached vs Fastswap", fig16},
		{"fig17", "NAS benchmarks", fig17},
		{"compile", "compilation costs", compileCosts},
		{"ablation", "design ablations (extension)", ablation},
		{"autotune", "object-size autotuning (extension)", autotuneTable},
		{"nasx", "NAS incl. EP/LU (extension)", nasExtended},
		{"mt", "multi-goroutine scaling (extension)", mtScan},
		{"overload", "overload soak: admission control (extension)", overloadTable},
		{"crash", "crash-consistency soak: WAL + recovery (extension)", crash},
		{"thrash", "memory-pressure soak: anti-thrash governor (extension)", thrashTable},
		{"tiers", "multi-tier caching: compressed-RAM crossover (extension)", tiersTable},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// irWorkload names a buildable IR program for the compile-cost report.
type irWorkload struct {
	name  string
	build func() *ir.Program
}

func irWorkloads(s Scale) []irWorkload {
	ws := []irWorkload{
		{"stream-sum", func() *ir.Program { return stream.Program(stream.Sum, s.n(1<<14)) }},
		{"stream-copy", func() *ir.Program { return stream.Program(stream.Copy, s.n(1<<14)) }},
		{"kmeans", func() *ir.Program { return kmeans.Program(kmeansConfig(s)) }},
		{"analytics", func() *ir.Program { return analytics.Program(analyticsConfig(s)) }},
	}
	for _, b := range nas.All {
		b := b
		ws = append(ws, irWorkload{
			"nas-" + b.String(),
			func() *ir.Program { return nasProgram(b, s) },
		})
	}
	return ws
}

func mustCompile(prog *ir.Program, opts compiler.Options) *compiler.Stats {
	stats, err := compiler.Compile(prog, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: compile: %v", err))
	}
	return stats
}
