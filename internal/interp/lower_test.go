package interp

import (
	"fmt"
	"math"
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

// TestFusedNodesMatchTrees: a fused node computes what the tree it stands
// for computes. Each fused shape is run against the same expression with
// its variables replaced by the constants they hold, which the lowerer
// leaves a tree of binExpr nodes, for every operator and every pair of
// edge values; the two programs must return the same value, or fail with
// the same error, and take the same minimal step budget. The differential
// tests cannot catch a fused node's mistake: the local and the TrackFM
// runs of a program share it.
func TestFusedNodesMatchTrees(t *testing.T) {
	edges := []int64{0, 1, -1, 3, -9, 63, 64, 65, -64, math.MaxInt64, math.MinInt64}
	shapes := []struct {
		node string // the node the shape lowers to
		// expr builds the shape over operands x and y; y's value v is
		// its constant.
		expr func(op ir.BinOp, x, y ir.Expr, v int64) ir.Expr
	}{
		{"binVarConstExpr", func(op ir.BinOp, x, _ ir.Expr, v int64) ir.Expr { return ir.B(op, x, ir.C(v)) }},
		{"binVarVarExpr", func(op ir.BinOp, x, y ir.Expr, _ int64) ir.Expr { return ir.B(op, x, y) }},
		{"idxExpr", func(_ ir.BinOp, x, y ir.Expr, v int64) ir.Expr { return ir.Idx(x, y, v) }},
		{"idxExpr", func(op ir.BinOp, x, y ir.Expr, v int64) ir.Expr { return ir.Idx(x, ir.B(op, y, x), v) }},
	}
	for _, sh := range shapes {
		for op := ir.OpAdd; op <= ir.OpNe; op++ {
			for _, xv := range edges {
				for _, yv := range edges {
					fused := sh.expr(op, ir.V("x"), ir.V("y"), yv)
					plain := sh.expr(op, ir.C(xv), ir.C(yv), yv)
					lw := lowerer{slots: map[string]int{}, streams: map[int]int{}}
					name := fmt.Sprintf("%s %v x=%d y=%d", sh.node, op, xv, yv)
					if got := fmt.Sprintf("%T", lw.expr(fused)); got != "*interp."+sh.node {
						t.Fatalf("%s: lowered to %s", name, got)
					}
					if got := fmt.Sprintf("%T", lw.expr(plain)); got != "*interp.binExpr" {
						t.Fatalf("%s: the tree lowered to %s, want a binExpr", name, got)
					}
					build := func(e ir.Expr) func() *ir.Program {
						return func() *ir.Program {
							p := ir.NewProgram()
							p.AddFunc(ir.Fn("main", nil, ir.Let("x", ir.C(xv)), ir.Let("y", ir.C(yv)), &ir.Return{E: e}))
							return p
						}
					}
					got, gotErr := Run(build(fused)(), NewLocalBackend(sim.NewEnv()), Options{})
					want, wantErr := Run(build(plain)(), NewLocalBackend(sim.NewEnv()), Options{})
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: %v, %v; the tree gives %v, %v", name, got, gotErr, want, wantErr)
					}
					if gotErr == nil {
						if f, p := minSteps(t, build(fused)), minSteps(t, build(plain)); f != p {
							t.Fatalf("%s: takes %d steps, the tree %d", name, f, p)
						}
					}
				}
			}
		}
	}
}
