package compiler

import "trackfm/internal/ir"

// Induction-variable / stride analysis (§3.4). For an address expression
// inside a loop with induction variable iv, strideOf computes the constant
// byte distance the address moves per iteration — the derivative
// d(addr)/d(iv) when the address is linear in iv with a constant
// coefficient. A non-linear or unknown-coefficient address yields ok ==
// false and the access keeps its ordinary guard (the paper: a missed IV
// "just results in lost loop chunking optimizations", never incorrectness).
//
// mutated is the set of variables assigned inside the loop body; any of
// them appearing in the address (other than iv itself) defeats linearity,
// because their per-iteration values are not affine in iv. nestedIVs are
// the induction variables of loops nested inside this one: their
// contribution to the address is a bounded offset independent of iv
// (a row-major a[(i*N)+j] access is a stride-N*elem stream of i with
// intra-element offsets j*elem), so they are treated as constants. This
// mirrors NOELLE detecting derived IVs "as patterns in the dependence
// graph", catching ~3x more induction variables than variable-based
// analyses (§3.4).
func strideOf(e ir.Expr, iv string, mutated, nestedIVs map[string]bool, subst substMap, depth int) (stride int64, ok bool) {
	if depth > 16 {
		return 0, false // defensive: mutually recursive definitions
	}
	switch n := e.(type) {
	case *ir.Const:
		return 0, true
	case *ir.Var:
		if n.Name == iv {
			return 1, true
		}
		if nestedIVs[n.Name] {
			return 0, true // bounded offset, independent of iv
		}
		if mutated[n.Name] {
			// A derived index like k = r*5 + d is assigned every
			// iteration, but when its (unique, load-free) definition
			// is affine in the IVs, the analysis sees through it —
			// NOELLE's dependence-graph IV detection in miniature.
			if def, hasDef := subst[n.Name]; hasDef {
				return strideOf(def, iv, mutated, nestedIVs, subst, depth+1)
			}
			return 0, false
		}
		return 0, true // loop-invariant
	case *ir.Bin:
		dl, okL := strideOf(n.L, iv, mutated, nestedIVs, subst, depth+1)
		dr, okR := strideOf(n.R, iv, mutated, nestedIVs, subst, depth+1)
		if !okL || !okR {
			return 0, false
		}
		switch n.Op {
		case ir.OpAdd:
			return dl + dr, true
		case ir.OpSub:
			return dl - dr, true
		case ir.OpMul:
			// Constant coefficients only: c*f(iv) or f(iv)*c.
			if c, isC := n.L.(*ir.Const); isC {
				return c.V * dr, true
			}
			if c, isC := n.R.(*ir.Const); isC {
				return dl * c.V, true
			}
			if dl == 0 && dr == 0 {
				return 0, true // product of invariants is invariant
			}
			return 0, false
		case ir.OpShl:
			if c, isC := n.R.(*ir.Const); isC && c.V >= 0 && c.V < 63 {
				return dl << uint(c.V), true
			}
			return 0, false
		default:
			// Division, masks, comparisons: linear only if the
			// subtree does not involve the IV at all.
			if dl == 0 && dr == 0 {
				return 0, true
			}
			return 0, false
		}
	case *ir.Load:
		// A loaded value can change arbitrarily between iterations.
		return 0, false
	default:
		return 0, false
	}
}

// substMap maps derived index variables to their defining expressions.
type substMap map[string]ir.Expr

// buildSubstMap collects variables assigned exactly once in f whose
// defining expression is pure (no loads) and not self-referencing. Such
// definitions are safe to substitute symbolically during stride analysis.
func buildSubstMap(f *ir.Func) substMap {
	// Sized past the small-map case, which a function's variables outgrow
	// anyway, so neither map is laid out on this frame: it sits on the
	// compile's deepest call path.
	counts := make(map[string]int, 9)
	exprs := make(map[string]ir.Expr, 9)
	ir.VisitStmts(f.Body, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			counts[a.Name]++
			exprs[a.Name] = a.E
		} else if def := assignedVar(s); def != "" {
			// Never substitute an allocation or call result; IVs are
			// handled directly.
			counts[def] += 2
		}
	}, nil)
	out := make(substMap)
	for name, c := range counts {
		if c != 1 {
			continue
		}
		e := exprs[name]
		if exprHasLoad(e) || exprMentions(e, name) {
			continue
		}
		out[name] = e
	}
	return out
}

func exprHasLoad(e ir.Expr) bool {
	found := false
	ir.VisitExprs(e, func(x ir.Expr) {
		if _, ok := x.(*ir.Load); ok {
			found = true
		}
	})
	return found
}

func exprMentions(e ir.Expr, name string) bool {
	found := false
	ir.VisitExprs(e, func(x ir.Expr) {
		if v, ok := x.(*ir.Var); ok && v.Name == name {
			found = true
		}
	})
	return found
}

// assignedVar returns the variable s assigns, or "".
func assignedVar(s ir.Stmt) string {
	return ir.Parts(s, func(*ir.Expr) {}, func(*[]ir.Stmt) {})
}

// loopVars partitions the variables that change within l's body into
// plain mutations (assignments, allocation destinations, call results —
// these defeat linearity) and nested loop IVs (bounded, iv-independent
// offsets — tolerated by strideOf). An IV that is also assigned outside
// its own loop header counts as mutated.
func loopVars(l *ir.For) (mutated, nestedIVs map[string]bool) {
	mutated = make(map[string]bool)
	nestedIVs = make(map[string]bool)
	ir.VisitStmts(l.Body, func(s ir.Stmt) {
		def := assignedVar(s)
		if _, isLoop := s.(*ir.For); isLoop {
			nestedIVs[def] = true
		} else if def != "" {
			mutated[def] = true
		}
	}, nil)
	for v := range mutated {
		delete(nestedIVs, v)
	}
	return mutated, nestedIVs
}

// staticTrips returns the loop's trip count when Start and Limit are
// constants (and the step divides evenly), or (0, false).
func staticTrips(l *ir.For) (uint64, bool) {
	start, okS := l.Start.(*ir.Const)
	limit, okL := l.Limit.(*ir.Const)
	if !okS || !okL || l.Step <= 0 {
		return 0, false
	}
	if limit.V <= start.V {
		return 0, true
	}
	return uint64((limit.V - start.V + l.Step - 1) / l.Step), true
}
