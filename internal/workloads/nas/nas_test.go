package nas

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
)

// testScale shrinks every kernel for unit tests.
func testScale(b Benchmark) Scale {
	switch b {
	case CG:
		return Scale{N: 512, Iterations: 2}
	case FT:
		return Scale{N: 512, Iterations: 1}
	case IS:
		return Scale{N: 2048, Iterations: 2}
	case MG:
		return Scale{N: 8, Iterations: 1}
	case SP:
		return Scale{N: 8, Iterations: 1}
	default:
		return Scale{}
	}
}

func localResult(t *testing.T, b Benchmark, s Scale) int64 {
	t.Helper()
	prog, err := Program(b, s)
	if err != nil {
		t.Fatalf("Program(%v): %v", b, err)
	}
	res, _, _, err := interp.RunOn(interp.Local, prog, compiler.Options{}, 0, 0)
	if err != nil {
		t.Fatalf("%v local run: %v", b, err)
	}
	return res.Return
}

func TestKernelsAgreeAcrossBackendsAndModes(t *testing.T) {
	for _, b := range All {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			s := testScale(b)
			want := localResult(t, b, s)

			for _, o1 := range []bool{false, true} {
				for _, mode := range []compiler.ChunkMode{compiler.ChunkNone, compiler.ChunkCostModel} {
					prog, err := Program(b, s)
					if err != nil {
						t.Fatalf("Program: %v", err)
					}
					res, _, _, err := interp.RunOn(interp.TrackFM, prog, compiler.Options{
						Chunking: mode, ObjectSize: 4096, Prefetch: true, O1: o1,
					}, 1<<26, 1<<20)
					if err != nil {
						t.Fatalf("%v o1=%v mode=%v run: %v", b, o1, mode, err)
					}
					if res.Return != want {
						t.Fatalf("%v o1=%v mode=%v = %d, want %d", b, o1, mode, res.Return, want)
					}
				}
			}

			// Fastswap agreement.
			prog, _ := Program(b, s)
			res, _, _, err := interp.RunOn(interp.Fastswap, prog, compiler.Options{}, 1<<26, 1<<21)
			if err != nil {
				t.Fatalf("%v fastswap run: %v", b, err)
			}
			if res.Return != want {
				t.Fatalf("%v fastswap = %d, want %d", b, res.Return, want)
			}
		})
	}
}

func TestISActuallySorts(t *testing.T) {
	// The IS checksum encodes sortedness in bit 40.
	got := localResult(t, IS, testScale(IS))
	if got>>40 != 1 {
		t.Fatalf("IS output not sorted (checksum %#x)", got)
	}
}

func TestO1ReducesFTAndSPMemoryInstructions(t *testing.T) {
	// §4.5: O1 pre-optimization reduces memory instructions for FT and
	// SP (paper: 6x and 4x dynamic; our naive frontend carries 2x-3x
	// static redundancy, asserted here as > 1.3x).
	for _, b := range []Benchmark{FT, SP} {
		prog, _ := Program(b, testScale(b))
		stats, err := compiler.Compile(prog, compiler.Options{O1: true})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		ratio := float64(stats.MemAccessesBefore) / float64(stats.MemAccessesAfter)
		if ratio < 1.3 {
			t.Errorf("%v: O1 mem-instruction reduction %.2fx, want > 1.3x (%d -> %d)",
				b, ratio, stats.MemAccessesBefore, stats.MemAccessesAfter)
		}
	}
}

func TestO1ReducesFTGuardsDynamically(t *testing.T) {
	s := testScale(FT)
	run := func(o1 bool) uint64 {
		prog, _ := Program(FT, s)
		_, env, _, err := interp.RunOn(interp.TrackFM, prog,
			compiler.Options{O1: o1, Chunking: compiler.ChunkNone}, 1<<24, 1<<22)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return env.Counters.Guards()
	}
	naive := run(false)
	opt := run(true)
	if opt >= naive {
		t.Fatalf("O1 did not reduce dynamic guards: %d -> %d", naive, opt)
	}
	if float64(naive)/float64(opt) < 1.3 {
		t.Fatalf("O1 dynamic guard reduction only %.2fx", float64(naive)/float64(opt))
	}
}

func TestFTButterflyStreamsNotChunked(t *testing.T) {
	// The variable-shift butterfly indexing must defeat the IV analysis
	// (the paper's FT guard-count story).
	prog, _ := Program(FT, testScale(FT))
	stats, err := compiler.Compile(prog, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Init and checksum loops chunk; butterfly loads must not. The
	// butterfly body has 8 loads + 4 stores; if any were chunked the
	// count would exceed the init/checksum streams (5).
	if stats.StreamsChunked > 6 {
		t.Fatalf("butterfly accesses were chunked: %d streams", stats.StreamsChunked)
	}
}

func TestTableInfoComplete(t *testing.T) {
	for _, b := range All {
		info := TableInfo(b)
		if info.Name == "" || info.MemoryGB == 0 || info.PaperLoC == 0 {
			t.Errorf("TableInfo(%v) incomplete: %+v", b, info)
		}
	}
	if TableInfo(Benchmark(99)).Name != "" {
		t.Errorf("unknown benchmark has info")
	}
}

func TestWorkingSetBytesPositive(t *testing.T) {
	for _, b := range All {
		if WorkingSetBytes(b, Scale{}) == 0 {
			t.Errorf("WorkingSetBytes(%v) = 0", b)
		}
	}
}

func TestProgramUnknownBenchmark(t *testing.T) {
	if _, err := Program(Benchmark(99), Scale{}); err == nil {
		t.Fatalf("unknown benchmark accepted")
	}
}

func TestZeroScaleBuilds(t *testing.T) {
	for _, b := range All {
		prog, err := Program(b, Scale{})
		if err != nil {
			t.Fatalf("Program(%v): %v", b, err)
		}
		if ir.CountMemAccesses(prog.Funcs["main"].Body) == 0 {
			t.Fatalf("%v has no memory accesses", b)
		}
	}
}
