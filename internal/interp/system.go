package interp

import (
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// System names what a program is put on: the four columns of the paper's
// comparison figures.
type System int

const (
	// Local runs the program as built, entirely in local memory: the
	// normalization baseline of the slowdown figures.
	Local System = iota
	// TrackFM compiles the program and runs it on a core.Runtime.
	TrackFM
	// Fastswap runs the program as built on the kernel-swap baseline.
	Fastswap
	// AIFM compiles the program, its chunk annotations standing in for the
	// library iterators of a hand port, and runs it guard-free on a pool.
	AIFM
)

var systemNames = [...]string{"local", "trackfm", "fastswap", "aifm"}

// String implements fmt.Stringer.
func (s System) String() string {
	if int(s) < len(systemNames) {
		return systemNames[s]
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// MinLocal is the one floor under a local budget: eight 4 KiB pages, so a
// run can always hold the handful of chunks its active cursors pin at once
// (the paper's smallest configurations still hold tens of thousands of
// pages). Everything that sizes a run's local memory passes it.
const MinLocal = 8 * 4096

// RunOn puts a freshly built prog on sys with a far heap of heap bytes, of
// which local (floored to MinLocal) may be resident, and runs it: the
// whole recipe, once. Where the system compiles (TrackFM, AIFM) opts is
// what it compiles with. A non-nil opts.Profile is filled, not read: a run
// on Local records loop and allocation coverage into it — that is what a
// profiling run is — and a system that compiles first makes that run, so
// the loops the profile is keyed by are the ones it then compiles.
// Everything the compiler decided reaches the runtime through prog — the
// object size it is built for, which streams prefetch — and is not asked
// for again. The env is a fresh one holding the run's clock and counters;
// stats is nil where the system does not compile.
func RunOn(sys System, prog *ir.Program, opts compiler.Options, heap, local uint64) (res Result, env *sim.Env, stats *compiler.Stats, err error) {
	if sys == TrackFM || sys == AIFM {
		if opts.Profile != nil {
			if _, _, _, err := RunOn(Local, prog, opts, 0, 0); err != nil {
				return Result{}, nil, nil, fmt.Errorf("profiling run: %w", err)
			}
		}
		if stats, err = compiler.Compile(prog, opts); err != nil {
			return Result{}, nil, nil, err
		}
	}
	if local < MinLocal {
		local = MinLocal
	}
	env = sim.NewEnv()
	backend, err := NewBackend(sys, env, prog.ObjectSize, heap, local)
	if err != nil {
		return Result{}, nil, stats, err
	}
	var runOpts Options
	if sys == Local {
		runOpts.Profile = opts.Profile
	}
	res, err = Run(prog, backend, runOpts)
	return res, env, stats, err
}

// NewBackend builds sys's runtime for objSize-byte objects (where it has
// objects) with a far heap of heap bytes, local of them resident, on env,
// and wraps it: the one constructor behind RunOn and every direct
// workload's system (objSize, heap and local are ignored on Local).
func NewBackend(sys System, env *sim.Env, objSize int, heap, local uint64) (Backend, error) {
	switch sys {
	case Local:
		return NewLocalBackend(env), nil
	case TrackFM:
		rt, err := core.NewRuntime(core.Config{Env: env, ObjectSize: objSize, HeapSize: heap, LocalBudget: local})
		if err != nil {
			return nil, err
		}
		return NewTrackFMBackend(rt), nil
	case Fastswap:
		sw, err := fastswap.New(fastswap.Config{Env: env, HeapSize: heap, LocalBudget: local})
		if err != nil {
			return nil, err
		}
		return NewFastswapBackend(sw), nil
	case AIFM:
		return NewAIFMBackend(env, objSize, heap, local)
	default:
		return nil, fmt.Errorf("interp: unknown system %v", sys)
	}
}
