package nas

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
)

func extTestScale(b Benchmark) Scale {
	switch b {
	case EP:
		return Scale{N: 4096, Iterations: 2}
	case LU:
		return Scale{N: 8, Iterations: 1}
	default:
		return Scale{}
	}
}

func TestExtendedKernelsAgreeAcrossBackends(t *testing.T) {
	for _, b := range Extended {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			s := extTestScale(b)
			want := localResult(t, b, s)
			if want == 0 {
				t.Fatalf("%v produced a degenerate zero checksum", b)
			}

			prog, _ := Program(b, s)
			res, _, _, err := interp.RunOn(interp.TrackFM, prog, compiler.Options{
				Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true,
			}, 1<<24, 1<<18)
			if err != nil {
				t.Fatalf("trackfm run: %v", err)
			}
			if res.Return != want {
				t.Fatalf("trackfm = %d, want %d", res.Return, want)
			}

			prog2, _ := Program(b, s)
			res, _, _, err = interp.RunOn(interp.Fastswap, prog2, compiler.Options{}, 1<<24, 1<<19)
			if err != nil {
				t.Fatalf("fastswap run: %v", err)
			}
			if res.Return != want {
				t.Fatalf("fastswap = %d, want %d", res.Return, want)
			}
		})
	}
}

func TestEPHasTinyFarMemoryFootprint(t *testing.T) {
	// EP is the control case: compute-bound, tiny tallies; even at 25%
	// local memory its slowdown should be modest compared to, say, LU.
	slowdown := func(b Benchmark, s Scale) float64 {
		local := float64(localResult2(t, b, s))
		prog, _ := Program(b, s)
		ws := WorkingSetBytes(b, s)
		_, env, _, err := interp.RunOn(interp.TrackFM, prog, compiler.Options{
			Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true,
		}, ws*2, ws/4)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return float64(env.Clock.Cycles()) / local
	}
	// At budget-floor scales both kernels degenerate to the guard floor,
	// so compare at sizes where 25% local actually constrains them.
	ep := slowdown(EP, Scale{N: 32768, Iterations: 1})
	lu := slowdown(LU, Scale{N: 24, Iterations: 1})
	if ep >= lu {
		t.Fatalf("EP slowdown (%v) should be below LU's (%v)", ep, lu)
	}
}

// localResult2 measures cycles of the local-only run (not the checksum).
func localResult2(t *testing.T, b Benchmark, s Scale) uint64 {
	t.Helper()
	prog, err := Program(b, s)
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	_, env, _, err := interp.RunOn(interp.Local, prog, compiler.Options{}, 0, 0)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return env.Clock.Cycles()
}

func TestExtendedInfo(t *testing.T) {
	for _, b := range Extended {
		if TableInfo(b).Name == "" {
			t.Errorf("TableInfo(%v) empty", b)
		}
		if WorkingSetBytes(b, Scale{}) == 0 {
			t.Errorf("WorkingSetBytes(%v) = 0", b)
		}
	}
	if EP.String() != "EP" || LU.String() != "LU" {
		t.Errorf("extended names broken")
	}
}
