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
		if err := validateBody(prog, f.Name, f.Body); err != nil {
			return err
		}
	}
	return nil
}

func validateBody(prog *ir.Program, fn string, body []ir.Stmt) error {
	for _, s := range body {
		switch n := s.(type) {
		case nil:
			return fmt.Errorf("compiler: %s: nil statement", fn)
		case *ir.Assign:
			if n.Name == "" {
				return fmt.Errorf("compiler: %s: assignment without a destination", fn)
			}
			if err := validateExpr(fn, n.E); err != nil {
				return err
			}
		case *ir.Store:
			if err := validateExpr(fn, n.Addr); err != nil {
				return err
			}
			if err := validateExpr(fn, n.Val); err != nil {
				return err
			}
		case *ir.If:
			if err := validateExpr(fn, n.Cond); err != nil {
				return err
			}
			if err := validateBody(prog, fn, n.Then); err != nil {
				return err
			}
			if err := validateBody(prog, fn, n.Else); err != nil {
				return err
			}
		case *ir.For:
			if n.IV == "" {
				return fmt.Errorf("compiler: %s: loop without an induction variable", fn)
			}
			if n.Step <= 0 {
				return fmt.Errorf("compiler: %s: loop %q has non-positive step %d", fn, n.IV, n.Step)
			}
			if err := validateExpr(fn, n.Start); err != nil {
				return err
			}
			if err := validateExpr(fn, n.Limit); err != nil {
				return err
			}
			if err := validateBody(prog, fn, n.Body); err != nil {
				return err
			}
		case *ir.Malloc:
			if n.Dst == "" {
				return fmt.Errorf("compiler: %s: malloc without a destination", fn)
			}
			if err := validateExpr(fn, n.Size); err != nil {
				return err
			}
		case *ir.LocalAlloc:
			if n.Dst == "" {
				return fmt.Errorf("compiler: %s: alloca without a destination", fn)
			}
			if err := validateExpr(fn, n.Size); err != nil {
				return err
			}
		case *ir.Free:
			if err := validateExpr(fn, n.Ptr); err != nil {
				return err
			}
		case *ir.Call:
			if n.Name != ir.ResetStatsCall {
				if _, ok := prog.Funcs[n.Name]; !ok {
					return fmt.Errorf("compiler: %s: call of undefined function %q", fn, n.Name)
				}
				if got, want := len(n.Args), len(prog.Funcs[n.Name].Params); got != want {
					return fmt.Errorf("compiler: %s: call of %q with %d args, want %d",
						fn, n.Name, got, want)
				}
			}
			for _, a := range n.Args {
				if err := validateExpr(fn, a); err != nil {
					return err
				}
			}
		case *ir.Return:
			if n.E != nil {
				if err := validateExpr(fn, n.E); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("compiler: %s: unknown statement %T", fn, s)
		}
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
