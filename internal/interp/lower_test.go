package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/ir"
	"trackfm/internal/ir/irgen"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/kmeans"
	"trackfm/internal/workloads/nas"
	"trackfm/internal/workloads/stream"
)

// minSteps is the smallest MaxSteps under which prog runs to completion on
// a local backend; build makes a fresh copy of the program for each try.
func minSteps(t *testing.T, build func() *ir.Program) uint64 {
	t.Helper()
	ok := func(max uint64) bool {
		_, err := Run(build(), NewLocalBackend(sim.NewEnv()), Options{MaxSteps: max})
		if err != nil && !strings.Contains(err.Error(), "step budget exhausted") {
			t.Fatalf("MaxSteps %d: %v", max, err)
		}
		return err == nil
	}
	hi := uint64(1)
	for !ok(hi) {
		hi *= 2
	}
	lo := hi / 2 // fails, or is 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestStepBudgetUnchanged: how many steps a run takes is a property of the
// program, not of how the interpreter walks it. The budgets below were
// measured when every node visited was one step; a statement's static step
// cost must add up to the same totals, compiled or not.
func TestStepBudgetUnchanged(t *testing.T) {
	km := kmeans.Config{Points: 112, Dims: 8, K: 4, Iterations: 2}
	for _, c := range []struct {
		name  string
		build func() *ir.Program
		want  uint64
	}{
		{"triad-2048", func() *ir.Program { return stream.Program(stream.Triad, 2048) }, 90_140},
		{"kmeans-112", func() *ir.Program { return kmeans.Program(km) }, 296_432},
		{"nas-IS-1408", func() *ir.Program {
			p, err := nas.Program(nas.IS, nas.Scale{N: 1408, Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, 214_836},
		{"irgen-3", func() *ir.Program { return irgen.Generate(3) }, 22_421},
		{"irgen-5", func() *ir.Program { return irgen.Generate(5) }, 186_604},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := minSteps(t, c.build); got != c.want {
				t.Errorf("uncompiled: minimal MaxSteps %d, want %d", got, c.want)
			}
			compiled := func() *ir.Program {
				p := c.build()
				if _, err := compiler.Compile(p, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}); err != nil {
					t.Fatal(err)
				}
				return p
			}
			if got := minSteps(t, compiled); got != c.want {
				t.Errorf("compiled: minimal MaxSteps %d, want %d", got, c.want)
			}
		})
	}
}

// TestFusedNodesMatchTrees: every node the lowerer makes for an ir.Bin
// computes what evalBin computes. Each shape — a variable and a constant,
// two variables, the general tree, ir.Idx off a variable with a variable
// or a computed index — is lowered for every operator, and the test checks
// the shape the lowerer reports, so a lowering that silently falls back to
// the general node fails. Run over every pair of edge values, the program
// must return what evalBin gives, or fail with evalBin's panic text, and
// take the minimal step budget of the same expression with its variables
// replaced by constants, which the lowerer leaves a tree. The differential
// tests cannot catch a node's mistake: the local and the TrackFM runs of a
// program share it.
func TestFusedNodesMatchTrees(t *testing.T) {
	edges := []int64{0, 1, -1, 3, -9, 63, 64, 65, -64, math.MaxInt64, math.MinInt64}
	shapes := []struct {
		shape string // what bin reports for the shape
		// expr builds the shape over operands x and y; y's value v is
		// its constant.
		expr func(op ir.BinOp, x, y ir.Expr, v int64) ir.Expr
		// want is the value, by evalBin, for x = a and y = b.
		want func(op ir.BinOp, a, b int64) int64
	}{
		{shapeVarConst, func(op ir.BinOp, x, _ ir.Expr, v int64) ir.Expr { return ir.B(op, x, ir.C(v)) },
			func(op ir.BinOp, a, b int64) int64 { return evalBin(op, a, b) }},
		{shapeVarVar, func(op ir.BinOp, x, y ir.Expr, _ int64) ir.Expr { return ir.B(op, x, y) },
			func(op ir.BinOp, a, b int64) int64 { return evalBin(op, a, b) }},
		{shapeTree, func(op ir.BinOp, x, y ir.Expr, _ int64) ir.Expr { return ir.B(op, ir.B(ir.OpOr, x, ir.C(0)), y) },
			func(op ir.BinOp, a, b int64) int64 { return evalBin(op, a, b) }},
		{shapeIdxVar, func(_ ir.BinOp, x, y ir.Expr, v int64) ir.Expr { return ir.Idx(x, y, v) },
			func(_ ir.BinOp, a, b int64) int64 { return evalBin(ir.OpAdd, a, evalBin(ir.OpMul, b, b)) }},
		{shapeIdx, func(op ir.BinOp, x, y ir.Expr, v int64) ir.Expr { return ir.Idx(x, ir.B(op, y, x), v) },
			func(op ir.BinOp, a, b int64) int64 {
				return evalBin(ir.OpAdd, a, evalBin(ir.OpMul, evalBin(op, b, a), b))
			}},
	}
	for _, sh := range shapes {
		for op := ir.OpAdd; op <= ir.OpNe; op++ {
			for _, xv := range edges {
				for _, yv := range edges {
					name := fmt.Sprintf("%s %v x=%d y=%d", sh.shape, op, xv, yv)
					fused := sh.expr(op, ir.V("x"), ir.V("y"), yv)
					plain := sh.expr(op, ir.C(xv), ir.C(yv), yv)
					lw := lowerer{slots: map[string]int{}, streams: map[int]int{}}
					if _, shape := lw.bin(fused.(*ir.Bin)); shape != sh.shape {
						t.Fatalf("%s: lowered to %s", name, shape)
					}
					if _, shape := lw.bin(plain.(*ir.Bin)); shape != shapeTree {
						t.Fatalf("%s: the constant form lowered to %s, want %s", name, shape, shapeTree)
					}
					want, wantErr := func() (v int64, err error) {
						defer func() {
							if r := recover(); r != nil {
								err = fmt.Errorf("interp: runtime fault: %v", r)
							}
						}()
						return sh.want(op, xv, yv), nil
					}()
					build := func(e ir.Expr) func() *ir.Program {
						return func() *ir.Program {
							p := ir.NewProgram()
							p.AddFunc(ir.Fn("main", nil, ir.Let("x", ir.C(xv)), ir.Let("y", ir.C(yv)), &ir.Return{E: e}))
							return p
						}
					}
					for form, e := range map[string]ir.Expr{"fused": fused, "constant": plain} {
						got, gotErr := Run(build(e)(), NewLocalBackend(sim.NewEnv()), Options{})
						if got.Return != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s, %s form: %v, %v; evalBin gives %v, %v", name, form, got.Return, gotErr, want, wantErr)
						}
					}
					if wantErr == nil {
						if f, p := minSteps(t, build(fused)), minSteps(t, build(plain)); f != p {
							t.Fatalf("%s: takes %d steps, the tree %d", name, f, p)
						}
					}
				}
			}
		}
	}
}

// TestFlatBodyAbortPoint: a loop body of assignments and stores charges a
// trip's steps at once when the whole trip fits the budget, and otherwise
// walks it statement by statement, so a run still stops at the start of
// the statement that crosses MaxSteps. Under every budget from 1 up to
// the program's minimum, the stores that reached the arena are exactly
// those a per-statement walk of the IR's step costs lets run.
func TestFlatBodyAbortPoint(t *testing.T) {
	const trips = 5
	body := []ir.Stmt{
		ir.St(ir.Idx(ir.V("a"), ir.V("i"), 16), ir.Add(ir.V("i"), ir.C(1))),
		ir.Let("x", ir.Add(ir.V("x"), ir.C(1))),
		ir.St(ir.Add(ir.Idx(ir.V("a"), ir.V("i"), 16), ir.C(8)), ir.Mul(ir.V("x"), ir.C(10))),
	}
	build := func() *ir.Program {
		p := ir.NewProgram()
		p.AddFunc(ir.Fn("main", nil,
			&ir.LocalAlloc{Dst: "a", Size: ir.C(16 * trips)},
			ir.Let("x", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.C(trips), body...),
		))
		return p
	}
	main := build().Funcs["main"]
	cost := func(s ir.Stmt) uint64 {
		n := uint64(1)
		ir.Parts(s, func(e *ir.Expr) { ir.VisitExprs(*e, func(ir.Expr) { n++ }) }, func(*[]ir.Stmt) {})
		return n
	}
	lw := lowerer{slots: map[string]int{}, streams: map[int]int{}}
	loop := lw.stmt(main.Body[2]).(*forStmt)
	var flat uint64
	for _, s := range body {
		flat += cost(s)
	}
	if loop.flat != flat {
		t.Fatalf("the loop's flat cost is %d, want the body's %d", loop.flat, flat)
	}

	// The per-statement walk: each statement in the order it runs, with
	// the arena word it stores (-1: none) and the value.
	type step struct {
		cost uint64
		word int
		val  uint64
	}
	var walk []step
	for _, s := range main.Body {
		walk = append(walk, step{cost(s), -1, 0})
	}
	for i := 0; i < trips; i++ {
		walk = append(walk, step{cost(body[0]), 2 * i, uint64(i + 1)}, step{cost(body[1]), -1, 0},
			step{cost(body[2]), 2*i + 1, uint64(10 * (i + 1))})
	}
	var total uint64
	for _, s := range walk {
		total += s.cost
	}
	if got := minSteps(t, build); got != total {
		t.Fatalf("minimal MaxSteps %d, the walk says %d", got, total)
	}
	for max := uint64(1); max <= total; max++ {
		b := NewLocalBackend(sim.NewEnv())
		_, err := Run(build(), b, Options{MaxSteps: max})
		if (err == nil) != (max == total) || err != nil && !strings.Contains(err.Error(), "step budget exhausted") {
			t.Fatalf("MaxSteps %d: %v", max, err)
		}
		want := make([]uint64, 2*trips)
		spent := uint64(0)
		for _, s := range walk {
			if spent += s.cost; spent > max {
				break
			}
			if s.word >= 0 {
				want[s.word] = s.val
			}
		}
		got := make([]uint64, 2*trips)
		for i := range got {
			if off := 8 * (i + 1); off <= len(b.local.buf) {
				got[i] = binary.LittleEndian.Uint64(b.local.buf[off-8:])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxSteps %d: the arena holds %v, the walk stops with %v", max, got, want)
		}
	}
}
