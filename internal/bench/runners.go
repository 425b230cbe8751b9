package bench

import (
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// Scale controls experiment sizing. Experiments multiply their default
// problem sizes by Factor; Factor 1 targets a few seconds for the whole
// suite. The benchmark CLI exposes it as -scale.
type Scale struct {
	Factor float64
}

func (s Scale) n(base int64) int64 {
	if s.Factor <= 0 {
		return base
	}
	v := int64(float64(base) * s.Factor)
	if v < 8 {
		v = 8
	}
	return v
}

// fullTrackFM is the configuration the comparison figures run TrackFM in:
// cost-model chunking with prefetch, for the paper's 4 KiB objects.
var fullTrackFM = compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}

// localFractions is the local-memory sweep most figures share.
var localFractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// run puts a freshly built prog on sys (interp.RunOn: compile where the
// system compiles, the runtime the program was compiled for, one run) and
// returns the run's env. Experiment configurations are static, so a
// failure is a programming error.
func run(sys interp.System, prog *ir.Program, opts compiler.Options, heap, local uint64) *sim.Env {
	_, env, _, err := interp.RunOn(sys, prog, opts, heap, local)
	if err != nil {
		panic(fmt.Sprintf("bench: %v run: %v", sys, err))
	}
	reportPhase(sys.String(), env)
	return env
}

// runLocal executes prog entirely in local memory (the normalization
// baseline of the slowdown figures).
func runLocal(prog *ir.Program) *sim.Env {
	return run(interp.Local, prog, compiler.Options{}, 0, 0)
}

// newRuntime builds the TrackFM runtime a microbenchmark runs on, or
// panics.
func newRuntime(env *sim.Env, objSize int, heap, budget uint64) *core.Runtime {
	rt, err := core.NewRuntime(core.Config{
		Env: env, ObjectSize: objSize, HeapSize: heap, LocalBudget: budget,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return rt
}

// newSwap builds the Fastswap baseline a microbenchmark runs on, or
// panics.
func newSwap(env *sim.Env, heap, budget uint64) *fastswap.Swap {
	s, err := fastswap.New(fastswap.Config{Env: env, HeapSize: heap, LocalBudget: budget})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return s
}

// direct puts a direct workload (hashmap, kv) on a fresh sys with an env
// of its own (interp.NewBackend, as RunOn does), or panics.
func direct(sys interp.System, objSize int, heap, budget uint64) interp.Backend {
	be, err := interp.NewBackend(sys, sim.NewEnv(), objSize, heap, budget)
	if err != nil {
		panic(fmt.Sprintf("bench: %v: %v", sys, err))
	}
	return be
}

// budget computes fraction*workingSet, floored to interp.MinLocal.
func budget(workingSet uint64, fraction float64) uint64 {
	b := uint64(float64(workingSet) * fraction)
	if b < interp.MinLocal {
		b = interp.MinLocal
	}
	return b
}
