package compiler

import (
	"fmt"

	"trackfm/internal/ir"
)

// The O1 pre-optimization of §4.5. The paper found that feeding NOELLE
// unoptimized IR made TrackFM inject far more guards than necessary for
// tight-loop codes (6x more memory instructions for NAS FT, 4x for SP);
// running redundancy elimination first "dramatically reduces guard
// overheads" and led the authors to reorder the default pipeline.
//
// The pass implemented here is redundant-load elimination over
// straight-line regions: within a statement list, a Load whose address
// expression is structurally identical to an earlier Load — with no
// intervening store, call, or allocation — reuses the earlier value via a
// compiler temporary. Alias analysis is conservative: any Store or Call
// invalidates all available loads, and assigning a variable invalidates
// loads whose address mentions it.

// o1Eliminate rewrites f in place and returns the number of Load nodes
// removed.
func o1Eliminate(f *ir.Func) int {
	r := &o1Rewriter{temps: 0}
	f.Body = r.block(f.Body)
	return r.removed
}

type o1Rewriter struct {
	temps   int
	removed int
}

// avail maps a structural address key to the temp var holding its loaded
// value.
type availMap map[string]string

func (r *o1Rewriter) newTemp() string {
	r.temps++
	return fmt.Sprintf(".t%d", r.temps)
}

// block processes one statement list with a fresh availability map: it
// rewrites each statement's operands, hoisting loads into temps emitted
// ahead of it, and its nested bodies, each a block of its own.
func (r *o1Rewriter) block(body []ir.Stmt) []ir.Stmt {
	avail := availMap{}
	var out []ir.Stmt
	emit := func(s ir.Stmt) { out = append(out, s) }
	expr := func(e *ir.Expr) { *e = r.rewriteExpr(*e, avail, emit) }
	nested := func(b *[]ir.Stmt) { *b = r.block(*b) }

	for _, s := range body {
		def := ir.Parts(s, expr, nested)
		emit(s)
		switch s.(type) {
		case *ir.Store, *ir.Free, *ir.If, *ir.For, *ir.Call:
			// Memory may have changed: a store, a free, a branch or loop
			// body that may have stored, a callee that may store anywhere.
			clear(avail)
		}
		if def != "" {
			for k := range avail {
				if keyMentionsVar(k, def) {
					delete(avail, k)
				}
			}
		}
	}
	return out
}

// rewriteExpr replaces redundant loads in e, emitting hoisted temps via
// emit, and returns the rewritten expression.
func (r *o1Rewriter) rewriteExpr(e ir.Expr, avail availMap, emit func(ir.Stmt)) ir.Expr {
	switch n := e.(type) {
	case *ir.Bin:
		n.L = r.rewriteExpr(n.L, avail, emit)
		n.R = r.rewriteExpr(n.R, avail, emit)
		return n
	case *ir.Load:
		n.Addr = r.rewriteExpr(n.Addr, avail, emit)
		key := exprKey(n.Addr)
		if key == "" {
			return n // unkeyable (contains a load): leave it
		}
		if tmp, ok := avail[key]; ok {
			r.removed++
			return &ir.Var{Name: tmp}
		}
		tmp := r.newTemp()
		emit(&ir.Assign{Name: tmp, E: n})
		avail[key] = tmp
		return &ir.Var{Name: tmp}
	default:
		return e
	}
}

// exprKey builds a structural key for pure address expressions; loads
// inside an address make it unkeyable ("" result).
func exprKey(e ir.Expr) string {
	switch n := e.(type) {
	case *ir.Const:
		return fmt.Sprintf("c%d", n.V)
	case *ir.Var:
		return "v<" + n.Name + ">"
	case *ir.Bin:
		l, r := exprKey(n.L), exprKey(n.R)
		if l == "" || r == "" {
			return ""
		}
		return "(" + l + n.Op.String() + r + ")"
	default:
		return ""
	}
}

// keyMentionsVar reports whether a key references variable name.
func keyMentionsVar(key, name string) bool {
	needle := "v<" + name + ">"
	for i := 0; i+len(needle) <= len(key); i++ {
		if key[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
