package stream

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

func runOn(t *testing.T, sys interp.System, prog *ir.Program, opts compiler.Options, heap, budget uint64) (int64, *sim.Env) {
	t.Helper()
	res, env, _, err := interp.RunOn(sys, prog, opts, heap, budget)
	if err != nil {
		t.Fatalf("%v run: %v", sys, err)
	}
	return res.Return, env
}

func TestKernelChecksumsAllBackends(t *testing.T) {
	const n = 3000
	for _, k := range []Kernel{Sum, Copy, Scale, Add, Triad} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			want := Expected(k, n)

			got, _ := runOn(t, interp.TrackFM, Program(k, n), compiler.Options{
				Chunking: compiler.ChunkCostModel, ObjectSize: 256, Prefetch: true,
			}, 1<<22, 1<<14)
			if got != want {
				t.Fatalf("trackfm checksum = %d, want %d", got, want)
			}

			// Fastswap and local agree.
			if got, _ := runOn(t, interp.Fastswap, Program(k, n), compiler.Options{}, 1<<22, 1<<15); got != want {
				t.Fatalf("fastswap checksum = %d, want %d", got, want)
			}
			if got, _ := runOn(t, interp.Local, Program(k, n), compiler.Options{}, 0, 0); got != want {
				t.Fatalf("local checksum = %d, want %d", got, want)
			}
		})
	}
}

func TestChunkingSpeedsUpSum(t *testing.T) {
	// Fig. 7's claim at the scale of a unit test: chunked STREAM beats
	// the naive transformation.
	const n = 1 << 15
	run := func(mode compiler.ChunkMode) uint64 {
		_, env := runOn(t, interp.TrackFM, Program(Sum, n), compiler.Options{
			Chunking: mode, ObjectSize: 4096,
		}, 1<<22, 1<<19) // 50% local
		return env.Clock.Cycles()
	}
	naive := run(compiler.ChunkNone)
	chunked := run(compiler.ChunkCostModel)
	if chunked >= naive {
		t.Fatalf("chunked STREAM Sum (%d cycles) not faster than naive (%d)", chunked, naive)
	}
	speedup := float64(naive) / float64(chunked)
	if speedup < 1.2 {
		t.Fatalf("chunking speedup %.2f, want >= 1.2 (paper: 1.5-2.0)", speedup)
	}
}

func TestBytesPerIteration(t *testing.T) {
	if Sum.BytesPerIteration() != 8 || Copy.BytesPerIteration() != 16 ||
		Add.BytesPerIteration() != 24 {
		t.Fatalf("BytesPerIteration wrong")
	}
}

func TestWorkingSetBytes(t *testing.T) {
	if WorkingSetBytes(Sum, 100) != 800 {
		t.Fatalf("Sum WS = %d", WorkingSetBytes(Sum, 100))
	}
	if WorkingSetBytes(Copy, 100) != 1600 {
		t.Fatalf("Copy WS = %d", WorkingSetBytes(Copy, 100))
	}
	if WorkingSetBytes(Triad, 100) != 2400 {
		t.Fatalf("Triad WS = %d", WorkingSetBytes(Triad, 100))
	}
}

func TestKernelString(t *testing.T) {
	if Sum.String() != "Sum" || Kernel(99).String() != "unknown" {
		t.Fatalf("Kernel.String broken")
	}
}
