// STREAM example: the full compiler path end-to-end.
//
// It builds the STREAM Sum kernel as mini-IR, runs the TrackFM pipeline
// three ways (no chunking, chunking, chunking+prefetch), executes each
// against the TrackFM runtime under memory pressure, and prints the
// speedups — a miniature of the paper's Figures 7 and 11.
//
//	go run ./examples/stream [-n 65536] [-local 0.25]
package main

import (
	"flag"
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/workloads/stream"
)

func main() {
	n := flag.Int64("n", 1<<16, "array elements")
	local := flag.Float64("local", 0.25, "fraction of the working set allowed local")
	flag.Parse()

	ws := stream.WorkingSetBytes(stream.Sum, *n)
	budget := uint64(float64(ws) * *local)

	run := func(name string, opts compiler.Options) uint64 {
		res, env, stats, err := interp.RunOn(interp.TrackFM, stream.Program(stream.Sum, *n), opts, ws*2, budget)
		if err != nil {
			panic(err)
		}
		if res.Return != stream.Expected(stream.Sum, *n) {
			panic("wrong checksum")
		}
		fmt.Printf("%-22s %12d cycles  (%s)\n", name, env.Clock.Cycles(), stats)
		return env.Clock.Cycles()
	}

	fmt.Printf("STREAM Sum, %d elements, %.0f%% of %d KB local\n\n", *n, *local*100, ws/1024)
	naive := run("naive guards", compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096})
	chunked := run("loop chunking", compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096})
	both := run("chunking + prefetch", compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true})

	fmt.Printf("\nchunking speedup:          %.2fx\n", float64(naive)/float64(chunked))
	fmt.Printf("chunking+prefetch speedup: %.2fx\n", float64(naive)/float64(both))
}
