package irgen

import (
	"testing"

	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42)
	b := Generate(42)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different programs")
	}
	c := Generate(43)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsRunAndTerminate(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		prog := Generate(seed)
		res, err := interp.Run(prog, interp.NewLocalBackend(sim.NewEnv()),
			interp.Options{MaxSteps: 50_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, prog.String())
		}
		_ = res
	}
}

func TestGeneratedProgramsHaveMemoryTraffic(t *testing.T) {
	withLoads := 0
	for seed := uint64(0); seed < 20; seed++ {
		prog := Generate(seed)
		if ir.CountMemAccesses(prog.Funcs["main"].Body) > 4 {
			withLoads++
		}
	}
	if withLoads < 15 {
		t.Fatalf("only %d/20 programs have substantial memory traffic", withLoads)
	}
}

func TestHeapBytesSufficient(t *testing.T) {
	if HeapBytes() < 4*1024*8 {
		t.Fatalf("HeapBytes too small: %d", HeapBytes())
	}
}
