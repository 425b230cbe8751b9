package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sumProgram builds the paper's running example: sum over a heap array.
func sumProgram(n int64) *Program {
	p := NewProgram()
	p.AddFunc(Fn("main", nil,
		&Malloc{Dst: "a", Size: C(n * 8)},
		Let("sum", C(0)),
		Loop("i", C(0), C(n),
			St(Idx(V("a"), V("i"), 8), V("i")),
		),
		Loop("j", C(0), C(n),
			Let("sum", Add(V("sum"), Ld(Idx(V("a"), V("j"), 8)))),
		),
		&Return{E: V("sum")},
	))
	return p
}

func TestCountMemAccesses(t *testing.T) {
	p := sumProgram(10)
	if got := CountMemAccesses(p.Funcs["main"].Body); got != 2 {
		t.Fatalf("CountMemAccesses = %d, want 2", got)
	}
}

func TestCountNodesPositive(t *testing.T) {
	p := sumProgram(10)
	if got := CountNodes(p.Funcs["main"].Body); got < 10 {
		t.Fatalf("CountNodes = %d, suspiciously small", got)
	}
}

func TestAssignedVars(t *testing.T) {
	p := sumProgram(10)
	vars := AssignedVars(p.Funcs["main"].Body)
	for _, name := range []string{"a", "sum", "i", "j"} {
		if !vars[name] {
			t.Errorf("AssignedVars missing %q", name)
		}
	}
	if vars["zzz"] {
		t.Errorf("AssignedVars invented a variable")
	}
}

func TestVisitStmtsReachesNestedBodies(t *testing.T) {
	p := NewProgram()
	p.AddFunc(Fn("main", nil,
		&If{Cond: C(1), Then: []Stmt{
			Loop("i", C(0), C(3),
				St(V("p"), C(1)),
			),
		}, Else: []Stmt{
			Let("x", C(2)),
		}},
	))
	var stores, loops, assigns int
	VisitStmts(p.Funcs["main"].Body, func(s Stmt) {
		switch s.(type) {
		case *Store:
			stores++
		case *For:
			loops++
		case *Assign:
			assigns++
		}
	}, nil)
	if stores != 1 || loops != 1 || assigns != 1 {
		t.Fatalf("visit counts: stores=%d loops=%d assigns=%d", stores, loops, assigns)
	}
}

// TestParts holds Parts to the statement kinds ir.go declares: for every
// kind, each operand and nested body is visited exactly once and by
// pointer to its field, operands in the order the interpreter evaluates
// them, and the assigned variable is returned. A kind or field Parts does
// not handle fails here.
func TestParts(t *testing.T) {
	kinds := []Stmt{&Assign{}, &Store{}, &If{}, &For{}, &Malloc{}, &Free{}, &LocalAlloc{}, &Call{}, &Return{}}
	// The field holding the variable each kind assigns.
	defField := map[string]string{"Assign": "Name", "For": "IV", "Malloc": "Dst", "LocalAlloc": "Dst", "Call": "Dst"}
	// Operand fields the interpreter evaluates out of declaration order:
	// a store's value before its address.
	evalOrder := map[string][]string{"Store": {"Val", "Addr"}}

	var names []string
	for _, s := range kinds {
		names = append(names, reflect.TypeOf(s).Elem().Name())
	}
	if declared := declaredStmtKinds(t); !slices.Equal(slices.Sorted(slices.Values(names)), declared) {
		t.Fatalf("ir.go declares statement kinds %v; this test and Parts know %v", declared, names)
	}

	rewritten := &Var{Name: "rewritten"}
	for _, s := range kinds {
		v := reflect.ValueOf(s).Elem()
		name := v.Type().Name()
		// Every Expr, []Expr, []Stmt and string field gets a sentinel
		// naming it.
		var exprFields, wantBodies []string
		operands := map[string][]string{}
		strs := map[string]string{}
		for i := 0; i < v.NumField(); i++ {
			f, field := v.Field(i), v.Type().Field(i).Name
			sentinel := name + "." + field
			switch f.Type() {
			case reflect.TypeFor[Expr]():
				f.Set(reflect.ValueOf(&Var{Name: sentinel}))
				operands[field] = []string{sentinel}
				exprFields = append(exprFields, field)
			case reflect.TypeFor[[]Expr]():
				f.Set(reflect.ValueOf([]Expr{&Var{Name: sentinel + "[0]"}, &Var{Name: sentinel + "[1]"}}))
				operands[field] = []string{sentinel + "[0]", sentinel + "[1]"}
				exprFields = append(exprFields, field)
			case reflect.TypeFor[[]Stmt]():
				f.Set(reflect.ValueOf([]Stmt{&Return{E: &Var{Name: sentinel}}}))
				wantBodies = append(wantBodies, sentinel)
			case reflect.TypeFor[string]():
				f.SetString(sentinel)
				strs[field] = sentinel
			}
		}
		order := exprFields
		if o, ok := evalOrder[name]; ok {
			if !slices.Equal(slices.Sorted(slices.Values(o)), slices.Sorted(slices.Values(exprFields))) {
				t.Fatalf("%s: operand fields %v, evaluation order lists %v", name, exprFields, o)
			}
			order = o
		}
		var wantExprs []string
		for _, field := range order {
			wantExprs = append(wantExprs, operands[field]...)
		}

		// Each callback replaces what it is handed, so the fields show
		// afterwards whether Parts handed over the fields themselves.
		var gotExprs, gotBodies []string
		def := Parts(s, func(e *Expr) {
			gotExprs = append(gotExprs, (*e).(*Var).Name)
			*e = rewritten
		}, func(b *[]Stmt) {
			gotBodies = append(gotBodies, (*b)[0].(*Return).E.(*Var).Name)
			*b = nil
		})
		if !slices.Equal(gotExprs, wantExprs) {
			t.Errorf("%s: Parts visited operands %v, want %v", name, gotExprs, wantExprs)
		}
		if !slices.Equal(gotBodies, wantBodies) {
			t.Errorf("%s: Parts visited bodies %v, want %v", name, gotBodies, wantBodies)
		}
		if want := strs[defField[name]]; def != want {
			t.Errorf("%s: Parts returned %q, want %q", name, def, want)
		}
		for i := 0; i < v.NumField(); i++ {
			field := name + "." + v.Type().Field(i).Name
			switch f := v.Field(i).Interface().(type) {
			case Expr:
				if f != Expr(rewritten) {
					t.Errorf("%s: a rewrite through Parts did not reach the field", field)
				}
			case []Expr:
				for j, e := range f {
					if e != Expr(rewritten) {
						t.Errorf("%s[%d]: a rewrite through Parts did not reach the element", field, j)
					}
				}
			case []Stmt:
				if f != nil {
					t.Errorf("%s: a rewrite through Parts did not reach the body", field)
				}
			}
		}
	}
}

// declaredStmtKinds returns, sorted, the types ir.go gives an isStmt method.
func declaredStmtKinds(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "ir.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "isStmt" && fd.Recv != nil {
			kinds = append(kinds, fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
		}
	}
	slices.Sort(kinds)
	return kinds
}

func TestBinOpString(t *testing.T) {
	if OpAdd.String() != "+" || OpNe.String() != "!=" {
		t.Fatalf("BinOp strings broken")
	}
	if BinOp(99).String() != "?" {
		t.Fatalf("unknown op should print ?")
	}
}

func TestProgramString(t *testing.T) {
	p := sumProgram(4)
	s := p.String()
	for _, want := range []string{"func main()", "malloc", "for i = 0; i < 4; i += 1", "return sum"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	// Annotations appear after marking.
	p.Funcs["main"].Body[2].(*For).Body[0].(*Store).Guarded = true
	if !strings.Contains(p.String(), "[G]") {
		t.Errorf("guard annotation not rendered")
	}
}

func TestLoopStepBuilder(t *testing.T) {
	l := LoopStep("i", C(0), C(10), 2)
	if l.Step != 2 || l.IV != "i" {
		t.Fatalf("LoopStep broken: %+v", l)
	}
}
