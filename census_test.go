package trackfm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusAllow lists the exported names under internal/ that no non-test
// file outside their own names, each with the reason it stays anyway: a
// fixture or observation point for tests of code that binaries do reach.
// Anything else the census finds is implementation only its own tests
// exercise, and is deleted rather than listed here.
var censusAllow = map[string]string{
	"fabric.NewFaultLink":      "cross-package fault fixture: far, aifm, fastswap, bench and farmem tests inject drops and corruption through it",
	"bufpool.Outstanding":      "leak detector: tests assert every lease went home",
	"irgen.Generate":           "differential-test program generator (interp difftests, FuzzDifferential)",
	"irgen.HeapBytes":          "sizes the heap those generated programs run in",
	"fabric.CompleteTicket":    "how a test transport with nothing to overlap answers StartFetch",
	"fabric.WallDeadlineAfter": "lets deadline tests build a wall-clock Deadline the way TCPTransport does",
	"ctier.DecodedLen":         "codec header accessor FuzzCodec holds Decode to",
	"ir.AssignedVars":          "compiler validation tests check pass output against it",
	"core.NaiveLoopCost":       "§3.4 Eq. 1, asserted against the paper's numbers",
	"core.ChunkedLoopCost":     "§3.4 Eq. 2, asserted against the paper's numbers",
	"core.DensityThreshold":    "§3.4 Eq. 3, asserted against the paper's numbers",
}

// TestConstructorCensus keeps dead surface from growing back: every
// exported top-level func and type declared in a non-test file under
// internal/ must be named by non-test code other than its own declaration
// and its own methods — in its package by its bare name, elsewhere as
// pkg.Name through an import of that package. A constructor nobody calls
// fails here; its type follows once the constructor is gone. Stdlib only;
// make vet runs it.
func TestConstructorCensus(t *testing.T) {
	const module = "trackfm"
	type decl struct{ dir, file, pkg, name string }
	var decls []decl
	// mentions holds, per package-level name of the package at dir, where
	// it is mentioned: the file and the top-level declaration it sits in.
	type name struct{ dir, name string }
	type site struct{ file, owner string }
	mentions := map[name][]site{}

	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "farmem", "benchmarks/fmbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			imports := map[string]string{} // local name -> directory of a package of this module
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(p, module+"/") {
					continue
				}
				local := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = strings.TrimPrefix(p, module+"/")
			}
			census := func(id *ast.Ident) {
				if id.IsExported() && strings.HasPrefix(dir, "internal/") {
					decls = append(decls, decl{dir, path, f.Name.Name, id.Name})
				}
			}
			// walk notes every name node mentions, as seen from inside the
			// top-level declaration of owner.
			walk := func(node ast.Node, owner string, declaring *ast.Ident) {
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						// pkg.Name names Name in pkg; x.Name names a field or
						// a method, which is no package-level declaration.
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							pkgName := name{imports[x.Name], n.Sel.Name}
							mentions[pkgName] = append(mentions[pkgName], site{path, owner})
						} else {
							ast.Inspect(n.X, visit)
						}
						return false
					case *ast.Ident:
						if n != declaring {
							mentions[name{dir, n.Name}] = append(mentions[name{dir, n.Name}], site{path, owner})
						}
					}
					return true
				}
				ast.Inspect(node, visit)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					owner := d.Name.Name
					if d.Recv == nil {
						census(d.Name)
					} else if len(d.Recv.List) == 1 {
						// A method belongs to its receiver's type.
						rt := d.Recv.List[0].Type
						if star, ok := rt.(*ast.StarExpr); ok {
							rt = star.X
						}
						if id, ok := rt.(*ast.Ident); ok {
							owner = id.Name
						}
					}
					walk(d, owner, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							census(ts.Name)
							walk(ts, ts.Name.Name, ts.Name)
						} else {
							walk(s, "", nil)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		alive := false
		for _, at := range mentions[name{d.dir, d.name}] {
			if at.file != d.file || at.owner != d.name {
				alive = true
			}
		}
		key := d.pkg + "." + d.name
		seen[key] = true
		if _, ok := censusAllow[key]; ok {
			if alive {
				t.Errorf("%s is on the census allowlist but non-test code names it: drop the entry", key)
			}
			continue
		}
		if !alive {
			dead = append(dead, key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported, but only its own declaration and tests name it — delete it, or allowlist it with its reason", d)
	}
	for key := range censusAllow {
		if !seen[key] {
			t.Errorf("census allowlist names %s, which no longer exists", key)
		}
	}
	if len(censusAllow) > 12 {
		t.Errorf("census allowlist has %d entries; the cap is 12", len(censusAllow))
	}
}

// stmtSwitchAllow lists the functions whose type switches may name two or
// more ir statement kinds, each with what its switch gives every kind. A
// switch anywhere else re-derives a statement's shape, which ir.Parts
// states once.
var stmtSwitchAllow = map[string]string{
	"ir.Parts":                   "the shape itself: each kind's operands, nested bodies and assigned variable",
	"ir.printStmts":              "the printer: each kind's own syntax",
	"interp.lowerer.stmt":        "the interpreter: each kind's own lowered form",
	"compiler.validateStmt":      "validation: the checks particular to each kind",
	"compiler.analyzeProvenance": "provenance: what each kind's assignment may hold",
	"compiler.o1Rewriter.block":  "O1: the kinds that may change memory and so clear every available load",
}

// TestStmtSwitchCensus keeps a statement's shape stated once: no non-test
// type switch names two or more ir statement kinds (pointers to types that
// implement ir.Stmt) outside the functions stmtSwitchAllow lists. A walk
// that needs a statement's operands, bodies or assigned variable takes
// them from ir.Parts. Resolved with go/types; make vet runs it.
func TestStmtSwitchCensus(t *testing.T) {
	tr := loadTree(t)
	stmt := tr.pkgs["internal/ir"].Scope().Lookup("Stmt").Type().Underlying().(*types.Interface)
	found := map[string]bool{}
	for dir, files := range tr.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				owner := tr.pkgs[dir].Name() + "."
				if fd.Recv != nil {
					rt := fd.Recv.List[0].Type
					if star, ok := rt.(*ast.StarExpr); ok {
						rt = star.X
					}
					if id, ok := rt.(*ast.Ident); ok {
						owner += id.Name + "."
					}
				}
				owner += fd.Name.Name
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sw, ok := n.(*ast.TypeSwitchStmt)
					if !ok {
						return true
					}
					kinds := map[string]bool{}
					for _, c := range sw.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							if p, ok := tr.info.Types[e].Type.(*types.Pointer); ok && types.Implements(p, stmt) {
								kinds[p.String()] = true
							}
						}
					}
					if len(kinds) < 2 {
						return true
					}
					found[owner] = true
					if _, ok := stmtSwitchAllow[owner]; !ok {
						t.Errorf("%s: a type switch in %s names %d ir statement kinds: take the statement's shape from ir.Parts, or allowlist %s with its reason",
							tr.fset.Position(sw.Pos()), owner, len(kinds), owner)
					}
					return true
				})
			}
		}
	}
	for owner := range stmtSwitchAllow {
		if !found[owner] {
			t.Errorf("stmtSwitchAllow names %s, which has no statement-kind switch: drop the entry", owner)
		}
	}
	if len(stmtSwitchAllow) > 6 {
		t.Errorf("stmtSwitchAllow has %d entries; the cap is 6", len(stmtSwitchAllow))
	}
}
