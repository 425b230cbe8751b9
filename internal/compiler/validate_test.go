package compiler

import (
	"strings"
	"testing"

	"trackfm/internal/ir"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := streamSum(16)
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateBuiltinMatchesInterp(t *testing.T) {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil, &ir.Call{Name: ir.ResetStatsCall}))
	if err := Validate(p); err != nil {
		t.Fatalf("builtin call rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		prog func() *ir.Program
		want string
	}{
		{"nil program", func() *ir.Program { return nil }, "nil program"},
		{"missing main", func() *ir.Program { return ir.NewProgram() }, "entry function"},
		{"nil statement", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, nil))
			return p
		}, "nil statement"},
		{"empty assign dst", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, ir.Let("", ir.C(1))))
			return p
		}, "without a destination"},
		{"zero step loop", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, ir.LoopStep("i", ir.C(0), ir.C(10), 0)))
			return p
		}, "non-positive step"},
		{"empty IV", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, ir.Loop("", ir.C(0), ir.C(10))))
			return p
		}, "induction variable"},
		{"undefined call", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, &ir.Call{Name: "nope"}))
			return p
		}, "undefined function"},
		{"arity mismatch", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, &ir.Call{Name: "f", Args: []ir.Expr{ir.C(1)}}))
			p.AddFunc(ir.Fn("f", []string{"a", "b"}, &ir.Return{}))
			return p
		}, "want 2"},
		{"nil expr", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, ir.Let("x", nil)))
			return p
		}, "nil expression"},
		{"nil bin child", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, ir.Let("x", &ir.Bin{Op: ir.OpAdd, L: ir.C(1)})))
			return p
		}, "nil expression"},
		{"malloc without dst", func() *ir.Program {
			p := ir.NewProgram()
			p.AddFunc(ir.Fn("main", nil, &ir.Malloc{Size: ir.C(8)}))
			return p
		}, "without a destination"},
	}
	for _, tc := range cases {
		err := Validate(tc.prog())
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompileRunsValidation(t *testing.T) {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil, ir.LoopStep("i", ir.C(0), ir.C(10), -1)))
	if _, err := Compile(p, Options{}); err == nil {
		t.Fatalf("Compile accepted an invalid program")
	}
}
