// Package ir defines the structured mini-IR the TrackFM compiler pipeline
// operates on. It stands in for LLVM bitcode: it preserves exactly the
// program features the paper's passes consume — loads and stores with
// address expressions, loops with loop-governing induction variables, heap
// allocation sites, and calls — while staying small enough to analyze,
// transform, and interpret deterministically.
//
// Values are 64-bit integers; addresses are values. Pointers returned by
// Malloc carry TrackFM's non-canonical flag bits when the program is
// executed against the TrackFM backend, so provenance analysis (which
// pointers may reference the far heap) mirrors the real system's custody
// discipline.
package ir

// Program is a compilation unit: a set of functions, entered at Main.
type Program struct {
	Funcs map[string]*Func
	// Main names the entry function (default "main").
	Main string
	// RuntimeInit is set by the compiler's runtime-initialization pass;
	// backends initialize their runtime before executing Main.
	RuntimeInit bool
	// ObjectSize is the object size the compiler priced its chunking
	// decisions against, recorded by the same pass (zero until compiled).
	// The runtime the program runs on must be built for it.
	ObjectSize int
}

// NewProgram returns an empty program with entry point "main".
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Func), Main: "main"}
}

// AddFunc registers f, replacing any previous function of the same name.
func (p *Program) AddFunc(f *Func) { p.Funcs[f.Name] = f }

// Func is a function: named parameters and a statement body. The value of
// the last executed Return statement is the function result (0 if none).
type Func struct {
	Name   string
	Params []string
	Body   []Stmt
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators. Comparisons yield 0 or 1.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd // bitwise
	OpOr  // bitwise
	OpXor
	OpShl
	OpShr
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
)

var binOpNames = [...]string{
	"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"<", "<=", ">", ">=", "==", "!=",
}

// String implements fmt.Stringer.
func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return "?"
}

// Expr is a side-effect-free expression tree node.
type Expr interface{ isExpr() }

// Const is an integer literal.
type Const struct{ V int64 }

// Var reads a local variable or parameter.
type Var struct{ Name string }

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Load reads 8 bytes from the address L evaluates to. Compiler passes
// annotate it in place.
type Load struct {
	Addr Expr
	// Guarded is set by the guard-check analysis when Addr may hold a
	// heap pointer; the backend then routes the access through a guard.
	Guarded bool
	// Chunk is set by the loop-chunking transform when this access is
	// served by a chunk cursor instead of per-access guards.
	Chunk *ChunkInfo
}

func (*Const) isExpr() {}
func (*Var) isExpr()   {}
func (*Bin) isExpr()   {}
func (*Load) isExpr()  {}

// ChunkInfo carries the loop-chunking transform's decision for one memory
// access stream (§3.4): the element stride in bytes and whether
// compiler-directed prefetch is planted at object boundaries.
type ChunkInfo struct {
	// Stride is the byte distance between consecutive accesses of the
	// innermost loop (the element size the cost model uses).
	Stride int64
	// Prefetch plants stride prefetches at boundary crossings.
	Prefetch bool
	// StreamID identifies the cursor shared by all accesses of this
	// stream within one loop entry.
	StreamID int
}

// Stmt is a statement node.
type Stmt interface{ isStmt() }

// Assign sets a variable.
type Assign struct {
	Name string
	E    Expr
}

// Store writes 8 bytes of Val to the address Addr evaluates to. Compiler
// passes annotate it like Load.
type Store struct {
	Addr, Val Expr
	Guarded   bool
	Chunk     *ChunkInfo
}

// If branches on Cond != 0.
type If struct {
	Cond       Expr
	Then, Else []Stmt
}

// For is a counted loop with an explicit loop-governing induction
// variable: for IV := Start; IV < Limit; IV += Step. The explicit form is
// what makes induction-variable analysis natural, standing in for
// NOELLE's dependence-graph IV detection.
type For struct {
	IV           string
	Start, Limit Expr
	Step         int64
	Body         []Stmt
	// Chunked is set by the loop-chunking transform when at least one
	// access stream in Body is served by a cursor.
	Chunked bool
	// StreamIDs lists the cursor streams owned by this loop; backends
	// open the cursors lazily on first access and close them when the
	// loop exits (on every entry).
	StreamIDs []int
}

// Malloc allocates Size bytes of heap and assigns the pointer to Dst. The
// libc transformation pass retargets it to the TrackFM allocator.
type Malloc struct {
	Dst  string
	Size Expr
	// TrackFM is set by the libc transformation pass.
	TrackFM bool
	// PinLocal is set by the profile-guided remotability pruning pass
	// (§5 / MaPHeA-style PGO): the allocation is so hot that it should
	// never be remoted. Backends place it in non-swappable local memory
	// and the guard analysis proves its accesses local, so they carry
	// no guards at all.
	PinLocal bool
}

// Free releases a heap allocation.
type Free struct{ Ptr Expr }

// LocalAlloc allocates Size bytes of non-heap (stack/global) storage and
// assigns its address to Dst. Guard analysis proves accesses through such
// pointers local and leaves them unguarded.
type LocalAlloc struct {
	Dst  string
	Size Expr
}

// ResetStatsCall is the builtin a program calls to reset its backend's
// clock, counters and latency histograms: the boundary between an untimed setup phase and the
// measured region (STREAM reports kernel bandwidth only).
const ResetStatsCall = "tfm_reset_stats"

// Call invokes a function, assigning its return value to Dst (ignored if
// Dst is empty).
type Call struct {
	Dst  string
	Name string
	Args []Expr
}

// Return exits the enclosing function with E's value (0 if E is nil).
type Return struct{ E Expr }

func (*Assign) isStmt()     {}
func (*Store) isStmt()      {}
func (*If) isStmt()         {}
func (*For) isStmt()        {}
func (*Malloc) isStmt()     {}
func (*Free) isStmt()       {}
func (*LocalAlloc) isStmt() {}
func (*Call) isStmt()       {}
func (*Return) isStmt()     {}
