package interp

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/ir"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// sumProgram: allocate n u64s, fill with i, sum them.
func sumProgram(n int64) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "a", Size: ir.C(n * 8)},
		ir.Let("sum", ir.C(0)),
		ir.Loop("i", ir.C(0), ir.C(n),
			ir.St(ir.Idx(ir.V("a"), ir.V("i"), 8), ir.V("i")),
		),
		ir.Loop("j", ir.C(0), ir.C(n),
			ir.Let("sum", ir.Add(ir.V("sum"), ir.Ld(ir.Idx(ir.V("a"), ir.V("j"), 8)))),
		),
		&ir.Return{E: ir.V("sum")},
	))
	return p
}

func newTFMBackend(t *testing.T, objSize int, heap, budget uint64) *TrackFMBackend {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Env: sim.NewEnv(), ObjectSize: objSize,
		HeapSize: heap, LocalBudget: budget,
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return NewTrackFMBackend(rt)
}

func newFSBackend(t *testing.T, heap, budget uint64) *FastswapBackend {
	t.Helper()
	s, err := fastswap.New(fastswap.Config{
		Env: sim.NewEnv(), HeapSize: heap, LocalBudget: budget,
	})
	if err != nil {
		t.Fatalf("fastswap.New: %v", err)
	}
	return NewFastswapBackend(s)
}

func compileWith(t *testing.T, prog *ir.Program, opts compiler.Options) *ir.Program {
	t.Helper()
	if _, err := compiler.Compile(prog, opts); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func TestAllBackendsAgreeOnSum(t *testing.T) {
	const n = 2000
	want := int64(n * (n - 1) / 2)

	for _, mode := range []compiler.ChunkMode{compiler.ChunkNone, compiler.ChunkAll, compiler.ChunkCostModel} {
		prog := compileWith(t, sumProgram(n), compiler.Options{Chunking: mode, ObjectSize: 256, Prefetch: true})

		tfm := newTFMBackend(t, 256, 1<<20, 1<<13) // tight budget: evictions
		res, err := Run(prog, tfm, Options{})
		if err != nil {
			t.Fatalf("mode %v trackfm: %v", mode, err)
		}
		if res.Return != want {
			t.Fatalf("mode %v trackfm sum = %d, want %d", mode, res.Return, want)
		}

		fs := newFSBackend(t, 1<<20, 1<<14)
		res, err = Run(prog, fs, Options{})
		if err != nil {
			t.Fatalf("mode %v fastswap: %v", mode, err)
		}
		if res.Return != want {
			t.Fatalf("mode %v fastswap sum = %d, want %d", mode, res.Return, want)
		}

		local := NewLocalBackend(sim.NewEnv())
		res, err = Run(prog, local, Options{})
		if err != nil {
			t.Fatalf("mode %v local: %v", mode, err)
		}
		if res.Return != want {
			t.Fatalf("mode %v local sum = %d, want %d", mode, res.Return, want)
		}
	}
}

func TestChunkedRunUsesCursors(t *testing.T) {
	const n = 4096
	prog := compileWith(t, sumProgram(n), compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 256})
	tfm := newTFMBackend(t, 256, 1<<20, 1<<20)
	if _, err := Run(prog, tfm, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := &tfm.RT.Env().Counters
	if c.ChunkInits != 2 {
		t.Fatalf("ChunkInits = %d, want 2 (one per loop)", c.ChunkInits)
	}
	if c.FastPathGuards != 0 {
		t.Fatalf("chunked run executed %d fast-path guards", c.FastPathGuards)
	}
	if c.BoundaryChecks != 2*n {
		t.Fatalf("BoundaryChecks = %d, want %d", c.BoundaryChecks, 2*n)
	}
}

func TestNaiveRunUsesGuards(t *testing.T) {
	const n = 1024
	prog := compileWith(t, sumProgram(n), compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 256})
	tfm := newTFMBackend(t, 256, 1<<20, 1<<20)
	if _, err := Run(prog, tfm, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := &tfm.RT.Env().Counters
	if c.Guards() != 2*n {
		t.Fatalf("Guards = %d, want %d", c.Guards(), 2*n)
	}
	if c.ChunkInits != 0 {
		t.Fatalf("naive run created cursors")
	}
}

func TestCustodyRejectOnLocalPointer(t *testing.T) {
	// A guarded access whose pointer turns out local at run time: the
	// custody check rejects and the raw access proceeds. Build: callee
	// dereferences a parameter; call it once with heap, once with stack.
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "h", Size: ir.C(64)},
		&ir.LocalAlloc{Dst: "s", Size: ir.C(64)},
		ir.St(ir.V("h"), ir.C(5)), // guarded heap store
		&ir.Call{Dst: "a", Name: "deref", Args: []ir.Expr{ir.V("h")}},
		&ir.Call{Dst: "b", Name: "deref", Args: []ir.Expr{ir.V("s")}},
		&ir.Return{E: ir.Add(ir.V("a"), ir.V("b"))},
	))
	prog.AddFunc(ir.Fn("deref", []string{"p"},
		&ir.Return{E: ir.Ld(ir.V("p"))},
	))
	compileWith(t, prog, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 64})

	tfm := newTFMBackend(t, 64, 1<<16, 1<<12)
	res, err := Run(prog, tfm, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Return != 5 {
		t.Fatalf("result = %d, want 5", res.Return)
	}
	if tfm.RT.Env().Counters.CustodyRejects != 1 {
		t.Fatalf("CustodyRejects = %d, want 1", tfm.RT.Env().Counters.CustodyRejects)
	}
}

func TestLocalAccessesSkipGuards(t *testing.T) {
	// A stack-only program compiled for TrackFM must execute zero guards.
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		&ir.LocalAlloc{Dst: "s", Size: ir.C(80)},
		ir.Loop("i", ir.C(0), ir.C(10),
			ir.St(ir.Idx(ir.V("s"), ir.V("i"), 8), ir.V("i")),
		),
		&ir.Return{E: ir.Ld(ir.V("s"))},
	))
	compileWith(t, prog, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 64})
	tfm := newTFMBackend(t, 64, 1<<16, 1<<12)
	if _, err := Run(prog, tfm, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := &tfm.RT.Env().Counters
	if c.Guards() != 0 || c.CustodyRejects != 0 {
		t.Fatalf("stack-only program executed guards: %s", c.String())
	}
}

func TestProfilingRun(t *testing.T) {
	prog := sumProgram(500)
	prof := compiler.NewProfile()
	local := NewLocalBackend(sim.NewEnv())
	if _, err := Run(prog, local, Options{Profile: prof}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	loop := prog.Funcs["main"].Body[2].(*ir.For)
	trips, ok := prof.AvgTrips(loop)
	if !ok || trips != 500 {
		t.Fatalf("AvgTrips = (%d, %v), want (500, true)", trips, ok)
	}
}

func TestFreeStatement(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "a", Size: ir.C(256)},
		ir.St(ir.V("a"), ir.C(1)),
		&ir.Free{Ptr: ir.V("a")},
		&ir.Return{E: ir.C(0)},
	))
	compileWith(t, prog, compiler.Options{ObjectSize: 64})
	tfm := newTFMBackend(t, 64, 1<<16, 1<<12)
	if _, err := Run(prog, tfm, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tfm.RT.HeapBytesInUse() != 0 {
		t.Fatalf("Free did not release the allocation")
	}
}

func TestRuntimeFaultBecomesError(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		ir.Let("x", ir.B(ir.OpDiv, ir.C(1), ir.C(0))),
	))
	compileWith(t, prog, compiler.Options{})
	if _, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{}); err == nil {
		t.Fatalf("division by zero did not error")
	}
}

func TestStepBudget(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		ir.Loop("i", ir.C(0), ir.C(1<<40),
			ir.Let("x", ir.V("i")),
		),
	))
	compileWith(t, prog, compiler.Options{})
	if _, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{MaxSteps: 10_000}); err == nil {
		t.Fatalf("runaway loop not aborted")
	}
}

func TestMissingMainErrors(t *testing.T) {
	prog := ir.NewProgram()
	if _, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{}); err == nil {
		t.Fatalf("missing main accepted")
	}
}

func TestEarlyReturnInsideChunkedLoopClosesCursors(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "a", Size: ir.C(1 << 16)},
		ir.Loop("i", ir.C(0), ir.C(4096),
			ir.Let("x", ir.Ld(ir.Idx(ir.V("a"), ir.V("i"), 8))),
			&ir.If{Cond: ir.B(ir.OpEq, ir.V("i"), ir.C(100)), Then: []ir.Stmt{
				&ir.Return{E: ir.V("x")},
			}},
		),
	))
	compileWith(t, prog, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 256})
	tfm := newTFMBackend(t, 256, 1<<20, 1<<13)
	if _, err := Run(prog, tfm, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// After the early return, the object pinned by the cursor must have
	// been released; otherwise EvacuateAll would leave it resident.
	tfm.RT.EvacuateAll()
	if got := tfm.RT.Pool().LocalBytes(); got != 0 {
		t.Fatalf("%d bytes still pinned after early return", got)
	}
}

func TestFastswapFaultsCounted(t *testing.T) {
	const n = 4096
	prog := compileWith(t, sumProgram(n), compiler.Options{Chunking: compiler.ChunkNone})
	fs := newFSBackend(t, 1<<20, 1<<14) // 4 frames of 4KB
	if _, err := Run(prog, fs, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := &fs.Swap.Env().Counters
	if c.Faults() == 0 {
		t.Fatalf("no faults under memory pressure")
	}
	if c.Guards() != 0 {
		t.Fatalf("fastswap run executed guards")
	}
}

// arithProgram: trips iterations of a body that only assigns, reads
// variables and computes; a callee's parameter and an unset variable ride
// along so the slot layout is exercised.
func arithProgram(trips int64) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("scale", []string{"x", "k"},
		&ir.Return{E: ir.Add(ir.Mul(ir.V("x"), ir.V("k")), ir.V("unset"))}))
	p.AddFunc(ir.Fn("main", nil,
		ir.Let("acc", ir.C(1)),
		ir.Loop("i", ir.C(0), ir.C(trips),
			ir.Let("t", ir.B(ir.OpXor, ir.V("acc"), ir.V("i"))),
			ir.Let("acc", ir.Add(ir.Mul(ir.V("t"), ir.C(31)), ir.B(ir.OpShr, ir.V("t"), ir.C(3)))),
		),
		&ir.Call{Dst: "acc", Name: "scale", Args: []ir.Expr{ir.V("acc"), ir.C(3)}},
		&ir.Return{E: ir.V("acc")},
	))
	return p
}

// triadProgram: trips iterations of STREAM Triad, a[i] = b[i] + 3*c[i],
// over three 5000-element arrays (40 000 bytes each).
func triadProgram(trips int64) *ir.Program {
	const n = 5000
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "a", Size: ir.C(n * 8)},
		&ir.Malloc{Dst: "b", Size: ir.C(n * 8)},
		&ir.Malloc{Dst: "c", Size: ir.C(n * 8)},
		ir.Loop("i", ir.C(0), ir.C(trips),
			ir.St(ir.Idx(ir.V("a"), ir.V("i"), 8), ir.Add(
				ir.Ld(ir.Idx(ir.V("b"), ir.V("i"), 8)),
				ir.Mul(ir.C(3), ir.Ld(ir.Idx(ir.V("c"), ir.V("i"), 8))))),
		),
		&ir.Return{E: ir.C(0)},
	))
	return p
}

// TestLoopBodyAllocFree: what a Run allocates does not depend on how many
// times a loop goes round — a frame is indexed, not hashed into, no step
// boxes a value, and a chunked loop's cursor slots are made with its frame.
// Two loops: Assign/Var/Bin on local memory, and a chunked, prefetching
// Triad on a fresh TrackFM runtime whose 64 KiB objects hold each array
// whole, so the runtime does the same work at any trip count.
//
// The collector is off while it counts. AllocsPerRun reads the process's
// malloc total, and a GC cycle adds mallocs no Run made: each cycle wakes
// the unique package's map cleanup, a runtime goroutine that allocates.
// Each Triad run builds a 2 MiB runtime, so cycles land inside the
// measured runs at varying points and moved the average by one.
func TestLoopBodyAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	backend := NewLocalBackend(sim.NewEnv())
	arith := func(trips int64) float64 {
		prog := arithProgram(trips)
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(prog, backend, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := arith(1), arith(5000); short != long {
		t.Fatalf("Run allocates %v times with a 1-trip loop and %v with a 5000-trip one", short, long)
	}
	triad := func(trips int64) float64 {
		prog := compileWith(t, triadProgram(trips), compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 1 << 16, Prefetch: true})
		return testing.AllocsPerRun(10, func() {
			tfm := newTFMBackend(t, 1<<16, 1<<20, 1<<20)
			if _, err := Run(prog, tfm, Options{}); err != nil {
				t.Fatal(err)
			}
			if tfm.RT.Env().Counters.ChunkInits != 3 {
				t.Fatalf("Triad loop opened %d cursors, want 3", tfm.RT.Env().Counters.ChunkInits)
			}
			tfm.RT.Pool().Close()
		})
	}
	if short, long := triad(1), triad(5000); short != long {
		t.Fatalf("Run allocates %v times with a 1-trip chunked Triad loop and %v with a 5000-trip one", short, long)
	}
}

// TestRunLeavesProgramAlone: the lowered form is the executor's own, so
// two concurrent Runs of one program are independent (run under -race)
// and the program prints the same afterwards.
func TestRunLeavesProgramAlone(t *testing.T) {
	prog := arithProgram(200)
	before := prog.String()
	want, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Run(prog, NewLocalBackend(sim.NewEnv()), Options{})
			if err != nil || got != want {
				t.Errorf("concurrent Run = %v, %v; want %v", got, err, want)
			}
		}()
	}
	wg.Wait()
	if after := prog.String(); after != before {
		t.Fatalf("Run changed the program:\n%s\nbecame\n%s", before, after)
	}
}

// TestObjectSizeMismatchRefused: a program carries the object size it was
// compiled for, and a TrackFM or AIFM backend built for another refuses it
// with an error naming both — in either direction; a backend with no
// object size takes any program.
func TestObjectSizeMismatchRefused(t *testing.T) {
	for _, c := range []struct{ compiled, runtime int }{{256, 4096}, {4096, 256}} {
		opts := compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: c.compiled, Prefetch: true}
		aifm, err := NewBackend(AIFM, sim.NewEnv(), c.runtime, 1<<20, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		for name, be := range map[string]Backend{
			"trackfm": newTFMBackend(t, c.runtime, 1<<20, 1<<16),
			"aifm":    aifm,
		} {
			prog := compileWith(t, sumProgram(100), opts)
			if prog.ObjectSize != c.compiled {
				t.Fatalf("Compile recorded object size %d, want %d", prog.ObjectSize, c.compiled)
			}
			_, err := Run(prog, be, Options{})
			if err == nil {
				t.Fatalf("%s: program compiled at %d B ran on a %d B runtime", name, c.compiled, c.runtime)
			}
			for _, size := range []int{c.compiled, c.runtime} {
				if !strings.Contains(err.Error(), fmt.Sprint(size)) {
					t.Errorf("%s: error %q does not name %d", name, err, size)
				}
			}
			if be.Env().Clock.Cycles() != 0 {
				t.Errorf("%s: the refused program ran (%d cycles)", name, be.Env().Clock.Cycles())
			}
		}
		for name, be := range map[string]Backend{
			"fastswap": newFSBackend(t, 1<<20, 1<<16),
			"local":    NewLocalBackend(sim.NewEnv()),
		} {
			if _, err := Run(compileWith(t, sumProgram(100), opts), be, Options{}); err != nil {
				t.Errorf("%s refused a compiled program: %v", name, err)
			}
		}
	}
}
