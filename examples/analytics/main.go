// Analytics example: the paper's headline comparison in miniature.
//
// It runs the NYC-taxi-style analytics application on all four systems —
// local-only, TrackFM, Fastswap, and the hand-ported AIFM version — under
// the same local-memory constraint and prints the Fig. 14-style summary.
//
//	go run ./examples/analytics [-rows 8000] [-local 0.25]
package main

import (
	"flag"
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/analytics"
)

func main() {
	rows := flag.Int64("rows", 6000, "trip rows")
	local := flag.Float64("local", 0.25, "fraction of the working set allowed local")
	flag.Parse()

	cfg := analytics.Config{Rows: *rows}
	ws := cfg.WorkingSetBytes()
	budget := uint64(float64(ws) * *local)
	fmt.Printf("analytics over %d trips (%d KB working set, %.0f%% local)\n\n",
		*rows, ws/1024, *local*100)

	// One fresh program per system, each put on it by the same call; the
	// compile options matter where the system compiles. The local-only run
	// comes first: it is the checksum and the clock the others are held to.
	opts := compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}
	var want int64
	var base float64
	report := func(name string, sys interp.System, extra func(*sim.Env) string) {
		res, env, _, err := interp.RunOn(sys, analytics.Program(cfg), opts, ws*2, budget)
		if err != nil {
			panic(err)
		}
		if sys == interp.Local {
			want, base = res.Return, float64(env.Clock.Cycles())
		}
		if res.Return != want {
			panic(fmt.Sprintf("%s produced wrong results: %d != %d", name, res.Return, want))
		}
		fmt.Printf("%-10s %6.2fx slowdown  (%.3fs simulated)  %s\n",
			name, float64(env.Clock.Cycles())/base, env.Clock.Seconds(), extra(env))
	}
	report("local", interp.Local, func(*sim.Env) string { return "" })
	// TrackFM: just recompile.
	report("TrackFM", interp.TrackFM, func(env *sim.Env) string {
		return fmt.Sprintf("%d guards", env.Counters.Guards())
	})
	// Fastswap: unmodified binary, kernel paging.
	report("Fastswap", interp.Fastswap, func(env *sim.Env) string {
		return fmt.Sprintf("%d faults", env.Counters.Faults())
	})
	// AIFM: the hand-ported library version (no guards).
	report("AIFM", interp.AIFM, func(*sim.Env) string { return "hand-ported, no guards" })
}
