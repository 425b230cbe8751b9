package compiler

import (
	"fmt"

	"trackfm/internal/ir"
)

// Validate checks a program's static well-formedness before the pipeline
// touches it: the entry function exists, every call resolves (to a
// function or the stats-reset builtin), loops have positive steps and
// non-empty induction variables, allocations name their destinations, and
// expression trees contain no nil children. Compile runs it implicitly;
// tools that construct IR programmatically (or accept them from a fuzzer)
// can call it directly for early, readable errors.
func Validate(prog *ir.Program) error {
	if prog == nil {
		return fmt.Errorf("compiler: nil program")
	}
	if _, ok := prog.Funcs[prog.Main]; !ok {
		return fmt.Errorf("compiler: entry function %q not found", prog.Main)
	}
	for name, f := range prog.Funcs {
		if name == "" || f == nil {
			return fmt.Errorf("compiler: unnamed or nil function")
		}
		if err := validateBody(prog, f); err != nil {
			return err
		}
	}
	return nil
}

// validateBody checks each statement of f's body, then its operands and
// nested bodies, stopping at the first error.
func validateBody(prog *ir.Program, f *ir.Func) error {
	var err error
	expr := func(e *ir.Expr) {
		if err == nil {
			err = validateExpr(f.Name, *e)
		}
	}
	var walk func(*[]ir.Stmt)
	walk = func(body *[]ir.Stmt) {
		for _, s := range *body {
			if err == nil {
				err = validateStmt(prog, f.Name, s)
			}
			if err != nil {
				return
			}
			ir.Parts(s, expr, walk)
		}
	}
	walk(&f.Body)
	return err
}

// validateStmt holds the checks particular to one statement's kind.
func validateStmt(prog *ir.Program, fn string, s ir.Stmt) error {
	switch n := s.(type) {
	case nil:
		return fmt.Errorf("compiler: %s: nil statement", fn)
	case *ir.Assign:
		if n.Name == "" {
			return fmt.Errorf("compiler: %s: assignment without a destination", fn)
		}
	case *ir.For:
		if n.IV == "" {
			return fmt.Errorf("compiler: %s: loop without an induction variable", fn)
		}
		if n.Step <= 0 {
			return fmt.Errorf("compiler: %s: loop %q has non-positive step %d", fn, n.IV, n.Step)
		}
	case *ir.Malloc:
		if n.Dst == "" {
			return fmt.Errorf("compiler: %s: malloc without a destination", fn)
		}
	case *ir.LocalAlloc:
		if n.Dst == "" {
			return fmt.Errorf("compiler: %s: alloca without a destination", fn)
		}
	case *ir.Call:
		if n.Name == ir.ResetStatsCall {
			return nil
		}
		callee, ok := prog.Funcs[n.Name]
		if !ok {
			return fmt.Errorf("compiler: %s: call of undefined function %q", fn, n.Name)
		}
		if got, want := len(n.Args), len(callee.Params); got != want {
			return fmt.Errorf("compiler: %s: call of %q with %d args, want %d", fn, n.Name, got, want)
		}
	case *ir.Store, *ir.If, *ir.Free, *ir.Return:
	default:
		return fmt.Errorf("compiler: %s: unknown statement %T", fn, s)
	}
	return nil
}

func validateExpr(fn string, e ir.Expr) error {
	switch n := e.(type) {
	case nil:
		return fmt.Errorf("compiler: %s: nil expression", fn)
	case *ir.Const:
		return nil
	case *ir.Var:
		if n.Name == "" {
			return fmt.Errorf("compiler: %s: unnamed variable", fn)
		}
		return nil
	case *ir.Bin:
		if err := validateExpr(fn, n.L); err != nil {
			return err
		}
		return validateExpr(fn, n.R)
	case *ir.Load:
		return validateExpr(fn, n.Addr)
	default:
		return fmt.Errorf("compiler: %s: unknown expression %T", fn, e)
	}
}
