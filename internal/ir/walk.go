package ir

// Walk infrastructure shared by every compiler pass.

// Parts names the pieces of statement s — the one statement of what each
// kind holds, so a pass that needs only a statement's shape never
// switches on its kind. It calls expr with a pointer to each operand
// expression, in the order the interpreter evaluates them (a Store's Val
// before its Addr, a loop's Start before its Limit, a call's arguments in
// order), then body with a pointer to each nested body, so a rewriting
// pass can replace either. It returns the variable s assigns (an
// Assign's Name, a loop's IV, the Dst of a Malloc, LocalAlloc or Call),
// or "". A Return without a value has no operand.
func Parts(s Stmt, expr func(*Expr), body func(*[]Stmt)) (def string) {
	switch n := s.(type) {
	case *Assign:
		expr(&n.E)
		return n.Name
	case *Store:
		expr(&n.Val)
		expr(&n.Addr)
	case *If:
		expr(&n.Cond)
		body(&n.Then)
		body(&n.Else)
	case *For:
		expr(&n.Start)
		expr(&n.Limit)
		body(&n.Body)
		return n.IV
	case *Malloc:
		expr(&n.Size)
		return n.Dst
	case *Free:
		expr(&n.Ptr)
	case *LocalAlloc:
		expr(&n.Size)
		return n.Dst
	case *Call:
		for i := range n.Args {
			expr(&n.Args[i])
		}
		return n.Dst
	case *Return:
		if n.E != nil {
			expr(&n.E)
		}
	}
	return ""
}

// VisitExprs calls fn for every expression node reachable from e,
// children first.
func VisitExprs(e Expr, fn func(Expr)) {
	switch n := e.(type) {
	case *Bin:
		VisitExprs(n.L, fn)
		VisitExprs(n.R, fn)
	case *Load:
		VisitExprs(n.Addr, fn)
	}
	fn(e)
}

// VisitStmts calls fn for every statement in body and nested bodies,
// outermost first, and visits contained expressions with efn (children
// first) when efn is non-nil.
func VisitStmts(body []Stmt, fn func(Stmt), efn func(Expr)) {
	expr := func(*Expr) {}
	if efn != nil {
		expr = func(e *Expr) {
			if *e != nil {
				VisitExprs(*e, efn)
			}
		}
	}
	var walk func(*[]Stmt)
	walk = func(b *[]Stmt) {
		for i := range *b {
			if fn != nil {
				fn((*b)[i])
			}
			Parts((*b)[i], expr, walk)
		}
	}
	// The top level is walked here: walk(&body) would move body to the heap.
	for i := range body {
		if fn != nil {
			fn(body[i])
		}
		Parts(body[i], expr, walk)
	}
}

// CountMemAccesses reports the static number of Load and Store nodes in
// body — the "memory instructions" metric of §4.5/§4.6.
func CountMemAccesses(body []Stmt) int {
	n := 0
	VisitStmts(body, func(s Stmt) {
		if _, ok := s.(*Store); ok {
			n++
		}
	}, func(e Expr) {
		if _, ok := e.(*Load); ok {
			n++
		}
	})
	return n
}

// CountNodes reports total statement plus expression node count, the
// code-size proxy for §4.6.
func CountNodes(body []Stmt) int {
	n := 0
	VisitStmts(body, func(Stmt) { n++ }, func(Expr) { n++ })
	return n
}

// AssignedVars collects every variable assigned anywhere in body
// (including loop IVs and allocation destinations).
func AssignedVars(body []Stmt) map[string]bool {
	out := make(map[string]bool)
	VisitStmts(body, func(s Stmt) {
		if def := Parts(s, func(*Expr) {}, func(*[]Stmt) {}); def != "" {
			out[def] = true
		}
	}, nil)
	return out
}
