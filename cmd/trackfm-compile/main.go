// Command trackfm-compile runs the TrackFM compiler pipeline (Figure 2 of
// the paper) over one of the built-in sample programs and reports what
// every pass decided: which accesses were guarded, which loops were
// chunked (and why the cost model rejected the rest), how much the code
// grew, and how long compilation took (§4.6).
//
//	trackfm-compile -prog stream-sum
//	trackfm-compile -prog kmeans -mode all -o1
//	trackfm-compile -list
//	trackfm-compile -prog nas-FT -print   # annotated IR
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/workloads/analytics"
	"trackfm/internal/workloads/kmeans"
	"trackfm/internal/workloads/nas"
	"trackfm/internal/workloads/stream"
)

func samples() map[string]func() *ir.Program {
	m := map[string]func() *ir.Program{
		"stream-sum":  func() *ir.Program { return stream.Program(stream.Sum, 1<<16) },
		"stream-copy": func() *ir.Program { return stream.Program(stream.Copy, 1<<16) },
		"kmeans": func() *ir.Program {
			return kmeans.Program(kmeans.Config{Points: 1500, Dims: 64, K: 8, Iterations: 2})
		},
		"analytics": func() *ir.Program { return analytics.Program(analytics.Config{Rows: 6000}) },
	}
	for _, b := range nas.All {
		b := b
		m["nas-"+b.String()] = func() *ir.Program {
			prog, err := nas.Program(b, nas.Scale{})
			if err != nil {
				panic(err)
			}
			return prog
		}
	}
	return m
}

func main() {
	prog := flag.String("prog", "stream-sum", "sample program to compile")
	mode := flag.String("mode", "cost-model", "chunking policy: none, all, cost-model")
	objSize := flag.Int("objsize", 4096, "AIFM object size the cost model targets")
	o1 := flag.Bool("o1", false, "run the O1 redundancy-elimination pre-optimization")
	prune := flag.Bool("prune", false, "run PGO remotability pruning (pins hot small allocations local)")
	profile := flag.Bool("profile", true, "run the profiling pass before compiling")
	printIR := flag.Bool("print", false, "print the annotated IR after compilation")
	list := flag.Bool("list", false, "list sample programs and exit")
	flag.Parse()

	reg := samples()
	if *list {
		names := make([]string, 0, len(reg))
		for n := range reg {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	build, ok := reg[*prog]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown program %q (use -list)\n", *prog)
		os.Exit(1)
	}
	var chunk compiler.ChunkMode
	switch *mode {
	case "none":
		chunk = compiler.ChunkNone
	case "all":
		chunk = compiler.ChunkAll
	case "cost-model":
		chunk = compiler.ChunkCostModel
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(1)
	}

	p := build()
	opts := compiler.Options{
		Chunking:   chunk,
		ObjectSize: *objSize,
		Prefetch:   true,
		O1:         *o1,
	}
	if *profile || *prune {
		prof := compiler.NewProfile()
		if _, _, _, err := interp.RunOn(interp.Local, p, compiler.Options{Profile: prof}, 0, 0); err != nil {
			fmt.Fprintf(os.Stderr, "profiling run failed: %v\n", err)
			os.Exit(1)
		}
		opts.Profile = prof
		if *prune {
			n := compiler.PruneRemotable(p, prof)
			fmt.Printf("PGO pruning pinned %d allocation site(s) local\n", n)
		}
	}
	stats, err := compiler.Compile(p, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("program: %s (chunking=%s o1=%v objsize=%d profile=%v prune=%v)\n",
		*prog, chunk, *o1, *objSize, *profile, *prune)
	fmt.Println(stats)
	if *printIR {
		fmt.Println()
		fmt.Print(p.String())
	}
}
