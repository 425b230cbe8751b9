// Package autotune implements the object-size autotuning the paper
// sketches in §3.2: "the small search space suggests that an autotuning
// approach is feasible ... an exhaustive search involving recompilation
// and a short-term execution would simply expand the short compile
// times." The search space is exactly the paper's: powers of two from the
// cache-line size (64 B) to the base page size (4 KB).
//
// For each candidate size the tuner rebuilds the program (compiler
// annotations are per-object-size decisions) and puts it on TrackFM through
// interp.RunOn — the full pipeline at that size, a runtime built for it,
// the deployment's local-memory constraint — and picks the size with the
// fewest simulated cycles.
package autotune

import (
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
)

// SearchSpace is the paper's candidate set: 2^6 .. 2^12 bytes.
var SearchSpace = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Config parameterizes a tuning run.
type Config struct {
	// Build returns a fresh copy of the program (required; the tuner
	// compiles each candidate independently).
	Build func() *ir.Program
	// HeapSize and LocalBudget describe the target deployment.
	HeapSize    uint64
	LocalBudget uint64
}

// Trial records one candidate's outcome.
type Trial struct {
	ObjectSize int
	Cycles     uint64
	Guards     uint64
	Fetches    uint64
	BytesMoved uint64
	Checksum   int64
}

// Result is the tuning outcome.
type Result struct {
	Best   int
	Trials []Trial
}

// Run executes the search. Every trial must produce the same program
// result; a mismatch is reported as an error (it would mean the runtime
// miscompiles at some object size — the search doubles as a test).
func Run(cfg Config) (*Result, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("autotune: Config.Build is required")
	}
	if cfg.HeapSize == 0 || cfg.LocalBudget == 0 {
		return nil, fmt.Errorf("autotune: HeapSize and LocalBudget are required")
	}
	res := &Result{Best: -1}
	var wantChecksum int64
	var haveChecksum bool
	var bestCycles uint64
	for _, size := range SearchSpace {
		opts := compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: size, Prefetch: true}
		out, env, _, err := interp.RunOn(interp.TrackFM, cfg.Build(), opts, cfg.HeapSize, cfg.LocalBudget)
		if err != nil {
			return nil, fmt.Errorf("autotune: at %dB: %w", size, err)
		}
		if haveChecksum && out.Return != wantChecksum {
			return nil, fmt.Errorf("autotune: result differs at %dB: %d vs %d",
				size, out.Return, wantChecksum)
		}
		wantChecksum, haveChecksum = out.Return, true

		tr := Trial{
			ObjectSize: size,
			Cycles:     env.Clock.Cycles(),
			Guards:     env.Counters.Guards(),
			Fetches:    env.Counters.RemoteFetches,
			BytesMoved: env.Counters.BytesFetched,
			Checksum:   out.Return,
		}
		res.Trials = append(res.Trials, tr)
		if res.Best < 0 || tr.Cycles < bestCycles {
			res.Best = size
			bestCycles = tr.Cycles
		}
	}
	return res, nil
}
