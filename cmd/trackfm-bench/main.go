// Command trackfm-bench regenerates the tables and figures of the TrackFM
// paper's evaluation (§4). Run one experiment by ID or all of them:
//
//	trackfm-bench -exp fig14
//	trackfm-bench -exp all
//	trackfm-bench -list
//
// Output is the same rows/series the paper plots; EXPERIMENTS.md maps each
// experiment to its paper claim and records paper-vs-measured values.
package main

import (
	"flag"
	"fmt"
	"os"

	"trackfm/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list), or all")
	scale := flag.Float64("scale", 1.0, "problem-size multiplier")
	asJSON := flag.Bool("json", false, "emit JSON instead of aligned text")
	list := flag.Bool("list", false, "list experiment ids and exit")
	phaseStats := flag.Bool("phase-stats", false, "print per-phase counter deltas and p50/p99 fetch latencies to stderr")
	flag.Parse()

	if *phaseStats {
		bench.PhaseWriter = os.Stderr
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	run := func(e bench.Experiment) {
		t := e.Run(bench.Scale{Factor: *scale})
		if *asJSON {
			fmt.Println(t.JSON())
			return
		}
		fmt.Println(t.String())
	}
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, err := bench.Lookup(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trackfm-bench: unknown experiment %q; available:\n", *exp)
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
		os.Exit(2)
	}
	run(e)
}
