package trackfm_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// tree is every non-test package of the module, type-checked from source.
// The field census and the doc test both read it.
type tree struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package // by directory, slash-separated
	files map[string][]*ast.File    // by directory
	std   types.Importer
	err   error
}

const modulePath = "trackfm"

var (
	treeOnce sync.Once
	theTree  *tree
)

// loadTree type-checks the non-test files of every package under the
// directories non-test code lives in. Standard-library imports come from
// the compiler's export data; the module's own packages are checked once
// each, so a field is one *types.Var wherever it is named.
func loadTree(t *testing.T) *tree {
	t.Helper()
	treeOnce.Do(func() {
		tr := &tree{
			fset:  token.NewFileSet(),
			pkgs:  map[string]*types.Package{},
			files: map[string][]*ast.File{},
			std:   importer.Default(),
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		theTree = tr
		for _, root := range []string{"cmd", "examples", "internal", "farmem", "benchmarks/fmbench"} {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				_, err = tr.importDir(filepath.ToSlash(path))
				return err
			})
			if err != nil {
				tr.err = err
				return
			}
		}
	})
	if theTree.err != nil {
		t.Fatalf("type-checking the tree: %v", theTree.err)
	}
	return theTree
}

// Import implements types.Importer.
func (tr *tree) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return tr.std.Import(path)
	}
	pkg, err := tr.importDir(strings.TrimPrefix(path, modulePath+"/"))
	if err == nil && pkg == nil {
		err = fmt.Errorf("no Go files in %s", path)
	}
	return pkg, err
}

// importDir checks the package in dir, or returns nil when dir holds no
// non-test Go file.
func (tr *tree) importDir(dir string) (*types.Package, error) {
	if pkg, ok := tr.pkgs[dir]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue // the other side of a build tag
		}
		f, err := parser.ParseFile(tr.fset, dir+"/"+name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		tr.pkgs[dir] = nil
		return nil, nil
	}
	pkg, err := (&types.Config{Importer: tr}).Check(modulePath+"/"+dir, tr.fset, files, tr.info)
	if err != nil {
		return nil, err
	}
	tr.pkgs[dir] = pkg
	tr.files[dir] = files
	return pkg, nil
}

// fieldAllow lists the settable values no non-test code sets, each with
// the reason it stays a field: a whole type ("pkg.Type") or one field
// ("pkg.Type.Field"). A whole type may be listed only while non-test code
// sets none of its fields. Anything else the census names becomes a
// constant.
var fieldAllow = map[string]string{
	"fabric.FaultConfig":      "fault-injection fixture: every field is a fault a test schedules through NewFaultLink",
	"interp.Options.MaxSteps": "safety bound FuzzDifferential and the interpreter's runaway-loop tests run under",

	// The deployment surface: what a farmem user reaches through the
	// embedded RemoteConfig, exercised by the fault soak and the overload
	// suites rather than by a binary's flag.
	"fabric.RemoteConfig.RemoteRetries": "farmem deployment surface: the fault soak, retry-budget and fault-parity tests sweep it",
	"fabric.RemoteConfig.OpDeadline":    "farmem deployment surface: the deadline and degraded-mode tests set it",
}

// fieldAllowCap is the length of the allowlist as it last shrank; it may
// shrink further.
const fieldAllowCap = 4

// TestFieldCensus holds config fields to the rule TestConstructorCensus
// holds constructors to: a settable value is set by non-test code or it is
// a constant. Every exported field of a struct named *Config, *Options or
// *Policy under internal/ and farmem/ must be written somewhere in
// non-test code — as a key of a composite literal of its type (an unkeyed
// literal writes them all), as the target of an assignment, or by having
// its address taken (flag.IntVar(&cfg.N, ...)) — outside the functions
// that only fill in its defaults: those of the struct's own package that
// have the struct in their signature. A write whose value is another
// censused field (CompressedBudget: cfg.CompressedBudget) only passes
// a setting through, so a field written only that way counts as set if
// one of the fields it copies is. A type that non-test code configures is
// allowlisted field by field, never whole, so a knob no caller sets cannot
// hide behind the ones they do. Resolved with go/types, because Interval,
// Seed and Clock are fields of several configs. make vet runs it.
func TestFieldCensus(t *testing.T) {
	tr := loadTree(t)

	// The fields under census, by the type that declares them.
	type owner struct {
		pkg  *types.Package
		name string // "pkg.Type"
		typ  *types.Named
	}
	owners := map[*types.Var]owner{}
	var fields []*types.Var
	for dir, pkg := range tr.pkgs {
		if pkg == nil || !(strings.HasPrefix(dir, "internal/") || dir == "farmem") {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Policy")) {
				continue
			}
			named := tn.Type().(*types.Named)
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				// An embedded config is not a value of its own: its
				// fields are counted where they are declared.
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					owners[f] = owner{pkg, pkg.Name() + "." + n, named}
					fields = append(fields, f)
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	copies := map[*types.Var][]*types.Var{} // the censused fields a pass-through write copies
	mentions := func(sig *types.Signature, typ *types.Named) bool {
		is := func(t types.Type) bool {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return types.Identical(t, typ)
		}
		if r := sig.Recv(); r != nil && is(r.Type()) {
			return true
		}
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				if is(tup.At(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	for dir, files := range tr.files {
		pkg := tr.pkgs[dir]
		for _, file := range files {
			for _, d := range file.Decls {
				var sig *types.Signature
				if fd, ok := d.(*ast.FuncDecl); ok {
					sig = tr.info.Defs[fd.Name].Type().(*types.Signature)
				}
				// field resolves e to the struct field it selects, if any.
				field := func(e ast.Expr) *types.Var {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := tr.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							return s.Obj().(*types.Var)
						}
					}
					return nil
				}
				// write records a write of f; val is the value written,
				// nil when the write is not a plain copy of one value.
				write := func(f *types.Var, val ast.Expr) {
					o, ok := owners[f]
					if !ok || (sig != nil && o.pkg == pkg && mentions(sig, o.typ)) {
						return
					}
					if src := field(val); src != nil {
						if _, ok := owners[src]; ok {
							copies[f] = append(copies[f], src)
							return
						}
					}
					set[f] = true
				}
				writeExpr := func(e, val ast.Expr) {
					if f := field(e); f != nil {
						write(f, val)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := tr.info.Types[n].Type
						if p, ok := typ.Underlying().(*types.Pointer); ok { // an elided &T{...}
							typ = p.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if f, ok := tr.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									write(f, kv.Value)
								}
							} else {
								write(st.Field(i), el)
							}
						}
					case *ast.AssignStmt:
						copying := n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs)
						for i, lhs := range n.Lhs {
							var val ast.Expr
							if copying {
								val = n.Rhs[i]
							}
							writeExpr(lhs, val)
						}
					case *ast.IncDecStmt:
						writeExpr(n.X, nil)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writeExpr(n.X, nil)
						}
					}
					return true
				})
			}
		}
	}

	// A pass-through write sets its field once a field it copies is set,
	// however long the chain (farmem to core to aifm).
	for grew := true; grew; {
		grew = false
		for f, srcs := range copies {
			for _, src := range srcs {
				if set[src] && !set[f] {
					set[f], grew = true, true
				}
			}
		}
	}

	var unset []string
	exists, needed := map[string]bool{}, map[string]bool{} // by allowlist key
	configured := map[string][]string{}                    // by type: the fields non-test code sets
	for _, f := range fields {
		o := owners[f]
		key := o.name + "." + f.Name()
		exists[o.name], exists[key] = true, true
		if set[f] {
			configured[o.name] = append(configured[o.name], f.Name())
			continue
		}
		if _, ok := fieldAllow[key]; ok {
			needed[key] = true
		} else if _, ok := fieldAllow[o.name]; ok {
			needed[o.name] = true
		} else {
			var via string
			if srcs := copies[f]; len(srcs) > 0 {
				names := make([]string, len(srcs))
				for i, src := range srcs {
					names[i] = owners[src].name + "." + src.Name()
				}
				sort.Strings(names)
				via = "; its only writes copy " + strings.Join(names, ", ") + ", which nothing sets"
			}
			unset = append(unset, fmt.Sprintf("%s (%s%s)", key, tr.fset.Position(f.Pos()), via))
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: settable, but no non-test code sets it — make it a constant, or allowlist it with its reason", u)
	}
	for key := range fieldAllow {
		if by := configured[key]; len(by) > 0 && strings.Count(key, ".") == 1 {
			sort.Strings(by)
			t.Errorf("%s is allowlisted as a whole type, but non-test code sets %s: allowlist its unset fields one by one", key, strings.Join(by, ", "))
		}
		if !exists[key] {
			t.Errorf("field allowlist names %s, which no longer exists", key)
		} else if !needed[key] {
			t.Errorf("%s is on the field allowlist but non-test code sets all of it: drop the entry", key)
		}
	}
	if len(fieldAllow) > fieldAllowCap {
		t.Errorf("field allowlist has %d entries; the cap is %d", len(fieldAllow), fieldAllowCap)
	}
}

// docName matches a package-qualified exported name in prose, with any
// members after it: fabric.Dial, core.Config.Transport, aifm.Pool.Access.
var docName = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Za-z_]\w*)*)`)

// docMember matches an unqualified Type.Member path in prose: Config.Replicas,
// Stats.Reused, Pool.Far. It counts only when Type is an exported type
// declared under internal/ or farmem and the match does not continue a
// qualified name (the . before aifm.Config.X's Config).
var docMember = regexp.MustCompile(`\b([A-Z]\w*)((?:\.[A-Za-z_]\w*)+)`)

// resolves reports whether obj has the member path parts, each a field or
// method of the one before.
func resolves(obj types.Object, parts []string) bool {
	for _, member := range parts {
		if obj == nil {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), member)
	}
	return obj != nil
}

// TestDocNamesResolve keeps the prose honest about the code: every
// backticked pkg.Name (and pkg.Type.Member) in README.md, DESIGN.md and
// EXPERIMENTS.md, for pkg a package under internal/ or farmem, must
// resolve to a declaration — a field or method for each member — in the
// tree as it is. So must every backticked Type.Member whose Type is an
// exported type declared there; several packages declare a Config or a
// Stats, so it resolves if any type of that name has the member path. A
// deletion that leaves a document describing what is gone fails here.
// make vet runs it.
func TestDocNamesResolve(t *testing.T) {
	tr := loadTree(t)
	pkgs := map[string]*types.Package{}
	typesNamed := map[string][]types.Object{}
	for dir, pkg := range tr.pkgs {
		if pkg != nil && (strings.HasPrefix(dir, "internal/") || dir == "farmem") {
			pkgs[pkg.Name()] = pkg
			for _, name := range pkg.Scope().Names() {
				if obj, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
					typesNamed[name] = append(typesNamed[name], obj)
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			spans := strings.Split(line, "`")
			for i := 1; i < len(spans); i += 2 { // the odd pieces are inside backticks
				span := spans[i]
				for _, m := range docName.FindAllStringSubmatch(span, -1) {
					pkg, ok := pkgs[m[1]]
					if !ok {
						continue
					}
					parts := strings.Split(m[2], ".")
					if !resolves(pkg.Scope().Lookup(parts[0]), parts[1:]) {
						t.Errorf("%s:%d: `%s` names nothing in the tree", doc, n+1, m[0])
					}
				}
				for _, m := range docMember.FindAllStringSubmatchIndex(span, -1) {
					if m[0] > 0 && span[m[0]-1] == '.' {
						continue // part of a qualified name, checked above
					}
					heads := typesNamed[span[m[2]:m[3]]]
					if len(heads) == 0 {
						continue
					}
					parts := strings.Split(span[m[4]+1:m[5]], ".")
					found := false
					for _, head := range heads {
						found = found || resolves(head, parts)
					}
					if !found {
						t.Errorf("%s:%d: `%s` names no member of any type %s in the tree", doc, n+1, span[m[0]:m[1]], span[m[2]:m[3]])
					}
				}
			}
		}
	}
}

// runPattern is a quoted -run pattern on a command line; testDecl is the
// declaration of a func go test runs.
var (
	runPattern = regexp.MustCompile(`-run[ =]'([^']*)'`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestRunPatternsMatch keeps the named test batteries honest about the
// tests: go test -run passes silently when its pattern matches nothing, so
// a deleted or renamed test would drop out of a make target unnoticed.
// Every alternative of the top level (before the first '/') of every quoted
// -run pattern in the Makefile and the verify skill must match a Test, Fuzz
// or Benchmark func somewhere in the tree; '^$', which runs no test on
// purpose, is the exception. make vet runs it.
func TestRunPatternsMatch(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"Makefile", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range runPattern.FindAllStringSubmatch(line, -1) {
				pat := strings.ReplaceAll(m[1], "$$", "$") // make's escape
				if pat == "^$" {
					continue
				}
				top, _, _ := strings.Cut(pat, "/")
				for _, alt := range strings.Split(top, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: -run alternative %q: %v", doc, n+1, alt, err)
						continue
					}
					matched := false
					for _, f := range funcs {
						matched = matched || re.MatchString(f)
					}
					if !matched {
						t.Errorf("%s:%d: -run alternative %q matches no Test, Fuzz or Benchmark func", doc, n+1, alt)
					}
				}
			}
		}
	}
}
