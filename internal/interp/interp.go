// Package interp executes compiled mini-IR programs against a far-memory
// backend: the TrackFM runtime (guards + cursors), the Fastswap baseline
// (page faults), or plain local memory. Its Backend is also what the
// direct workloads (hashmap, kv) run on, built by the same NewBackend. It
// also hosts the profiling run that feeds loop coverage back into the
// compiler's cost model.
package interp

import (
	"fmt"

	"trackfm/internal/compiler"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// Cursor is the backend-side handle for one chunked access stream.
type Cursor interface {
	// Load reads 8 bytes at addr through the chunk protocol.
	Load(addr uint64) uint64
	// Store writes 8 bytes at addr through the chunk protocol.
	Store(addr uint64, v uint64)
	// Close releases the pinned chunk.
	Close()
}

// Backend is the one memory interface every workload runs on: the IR
// programs Run interprets, and the direct workloads (hashmap, kv) that call
// it as an already-transformed application would. Addresses are opaque
// 64-bit values minted by Malloc/LocalAlloc, never 0; TrackFM backends mint
// non-canonical pointers for heap allocations, so custody semantics follow
// the value, exactly as in the transformed binaries.
type Backend interface {
	// Env returns the backend's simulation environment with every charge
	// so far on it. A backend may hold its fast-path charges back
	// (core.Meter) until this call, so a caller that reads the clock or
	// the counters between its calls into the backend reads them here.
	Env() *sim.Env
	// Init runs the runtime-initialization hooks the compiler planted,
	// which carry the object size the program was compiled for; a backend
	// whose runtime was built for another size refuses the program.
	Init(objectSize int) error
	// Malloc allocates heap memory (the libc-transformed path).
	Malloc(n uint64) uint64
	// Free releases heap memory.
	Free(addr uint64)
	// LocalAlloc allocates stack/global memory.
	LocalAlloc(n uint64) uint64
	// Load reads 8 bytes; guarded says whether the compiler emitted a
	// guard for this access.
	Load(addr uint64, guarded bool) uint64
	// Store writes 8 bytes.
	Store(addr uint64, v uint64, guarded bool)
	// LoadBytes reads len(dst) bytes of heap memory at addr, guarded: a
	// direct workload's value copies.
	LoadBytes(addr uint64, dst []byte)
	// StoreBytes writes src to heap memory at addr, guarded.
	StoreBytes(addr uint64, src []byte)
	// OpenCursor starts a chunked stream whose first access is at
	// firstAddr with the given byte stride.
	OpenCursor(firstAddr uint64, stride int64, prefetch bool) Cursor
}

// Result carries a program run's outcome.
type Result struct {
	// Return is the value returned by main (0 if none).
	Return int64
}

// Options tunes one execution.
type Options struct {
	// Profile, when non-nil, records loop coverage during the run (the
	// compiler's profiling pass uses a cheap local-backend run).
	Profile *compiler.Profile
	// MaxSteps aborts runaway programs (0 means a generous default). A
	// run takes one step per statement executed plus one per expression
	// node that statement evaluates; a statement's steps are charged
	// before it runs, so a run that would exceed MaxSteps stops at the
	// start of the statement that crosses it.
	MaxSteps uint64
}

// Run executes prog against backend. When it returns, even with a fault,
// every charge the run made is on the backend's Env.
func Run(prog *ir.Program, backend Backend, opts Options) (res Result, err error) {
	main, ok := prog.Funcs[prog.Main]
	if !ok {
		return Result{}, fmt.Errorf("interp: entry function %q not found", prog.Main)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 40
	}
	defer func() {
		backend.Env() // flushes what the backend holds back
		if r := recover(); r != nil {
			err = fmt.Errorf("interp: runtime fault: %v", r)
		}
	}()
	if prog.RuntimeInit {
		if err := backend.Init(prog.ObjectSize); err != nil {
			return Result{}, err
		}
	}
	ex := &executor{prog: prog, backend: backend, opts: opts, funcs: make(map[*ir.Func]*function)}
	v := ex.call(ex.function(main), nil, nil)
	return Result{Return: v}, nil
}

// The executor runs its own form of the program, lowered from the IR one
// function at a time on the function's first call: a variable is a slot
// in its function's frame (parameters first, then every other name in
// order of appearance), so reading one is an index, not a map probe by
// name; a chunked stream is a slot in the frame's cursors, numbered the
// same way. The lowered form belongs to one Run; the *ir.Program is only
// read.
type executor struct {
	prog    *ir.Program
	backend Backend
	opts    Options
	steps   uint64
	funcs   map[*ir.Func]*function

	// allocRanges maps addresses back to allocation sites during
	// profiling runs, for the PGO remotability pruning pass.
	allocRanges []allocRange
}

type allocRange struct {
	base, end uint64
	site      *ir.Malloc
}

// recordAccess attributes a profiled memory access to its allocation site.
func (ex *executor) recordAccess(addr uint64) {
	for i := len(ex.allocRanges) - 1; i >= 0; i-- {
		r := ex.allocRanges[i]
		if addr >= r.base && addr < r.end {
			ex.opts.Profile.RecordAllocAccess(r.site)
			return
		}
	}
}

// function is a lowered ir.Func.
type function struct {
	name     string
	nparams  int
	nslots   int // frame size: parameters plus every other variable named
	nstreams int // cursor slots: every chunked stream the body names
	body     block
}

// block is a lowered body: each statement with its step cost, 1 plus the
// expression nodes the statement evaluates itself (a nested body's
// statements pay their own).
type block []costedStmt

type costedStmt struct {
	s    stmt
	cost uint64
}

// expr is a lowered expression: a closure over its slots, constants and
// subexpressions. An arithmetic node is made for its operator and its
// shape; see bin.
type expr func(ex *executor, fr *frame) int64

// stmt is a lowered statement. Each mirrors the ir node it was lowered
// from, names replaced by slots.
type (
	stmt interface {
		exec(ex *executor, fr *frame)
	}

	// chunkStream is a lowered ir.ChunkInfo: the cursor slot of its
	// stream and how to open the cursor.
	chunkStream struct {
		slot     int
		stride   int64
		prefetch bool
	}

	assignStmt struct {
		slot int
		e    expr
	}
	storeStmt struct {
		addr, val expr
		guarded   bool
		chunk     *chunkStream
	}
	ifStmt struct {
		cond         expr
		then, orElse block
	}
	forStmt struct {
		src          *ir.For // the profile's key; Step
		iv           int
		start, limit expr
		streams      []int // the cursor slots of src.StreamIDs, closed on exit
		body         block
		// flat is flatCost(body): a trip that fits the budget charges it
		// once. 0: the body is not flat.
		flat uint64
	}
	mallocStmt struct {
		src  *ir.Malloc // the profile's key; PinLocal
		dst  int
		size expr
	}
	freeStmt       struct{ ptr expr }
	localAllocStmt struct {
		dst  int
		size expr
	}
	callStmt struct {
		name   string
		dst    int // -1: result dropped
		args   []expr
		callee *function // resolved by the first execution
	}
	resetStatsStmt struct{}
	returnStmt     struct{ e expr } // e is nil for a bare return
)

// function returns f lowered, lowering it on first use.
func (ex *executor) function(f *ir.Func) *function {
	if fn, ok := ex.funcs[f]; ok {
		return fn
	}
	lw := lowerer{slots: make(map[string]int, len(f.Params)), streams: make(map[int]int)}
	for _, p := range f.Params {
		lw.slot(p)
	}
	fn := &function{name: f.Name, nparams: len(f.Params), body: lw.block(f.Body)}
	fn.nslots = len(lw.slots)
	fn.nstreams = len(lw.streams)
	ex.funcs[f] = fn
	return fn
}

// lowerer assigns one function's variable names their frame slots and its
// chunked streams their cursor slots.
type lowerer struct {
	slots   map[string]int
	streams map[int]int // by ir.ChunkInfo.StreamID
}

func (lw *lowerer) slot(name string) int {
	s, ok := lw.slots[name]
	if !ok {
		s = len(lw.slots)
		lw.slots[name] = s
	}
	return s
}

func (lw *lowerer) streamSlot(id int) int {
	s, ok := lw.streams[id]
	if !ok {
		s = len(lw.streams)
		lw.streams[id] = s
	}
	return s
}

func (lw *lowerer) chunk(ci *ir.ChunkInfo) *chunkStream {
	if ci == nil {
		return nil
	}
	return &chunkStream{slot: lw.streamSlot(ci.StreamID), stride: ci.Stride, prefetch: ci.Prefetch}
}

func (lw *lowerer) block(body []ir.Stmt) block {
	out := make(block, len(body))
	for i, s := range body {
		cost := uint64(1)
		ir.Parts(s, func(e *ir.Expr) { ir.VisitExprs(*e, func(ir.Expr) { cost++ }) }, func(*[]ir.Stmt) {})
		out[i] = costedStmt{lw.stmt(s), cost}
	}
	return out
}

func (lw *lowerer) stmt(s ir.Stmt) stmt {
	switch n := s.(type) {
	case *ir.Assign:
		return &assignStmt{slot: lw.slot(n.Name), e: lw.expr(n.E)}
	case *ir.Store:
		return &storeStmt{addr: lw.expr(n.Addr), val: lw.expr(n.Val), guarded: n.Guarded, chunk: lw.chunk(n.Chunk)}
	case *ir.If:
		return &ifStmt{cond: lw.expr(n.Cond), then: lw.block(n.Then), orElse: lw.block(n.Else)}
	case *ir.For:
		loop := &forStmt{src: n, iv: lw.slot(n.IV), start: lw.expr(n.Start), limit: lw.expr(n.Limit), body: lw.block(n.Body)}
		for _, id := range n.StreamIDs {
			loop.streams = append(loop.streams, lw.streamSlot(id))
		}
		loop.flat = flatCost(loop.body)
		return loop
	case *ir.Malloc:
		return &mallocStmt{src: n, dst: lw.slot(n.Dst), size: lw.expr(n.Size)}
	case *ir.Free:
		return &freeStmt{ptr: lw.expr(n.Ptr)}
	case *ir.LocalAlloc:
		return &localAllocStmt{dst: lw.slot(n.Dst), size: lw.expr(n.Size)}
	case *ir.Call:
		if n.Name == ir.ResetStatsCall {
			return resetStatsStmt{}
		}
		c := &callStmt{name: n.Name, dst: -1, args: make([]expr, len(n.Args))}
		if n.Dst != "" {
			c.dst = lw.slot(n.Dst)
		}
		for i, a := range n.Args {
			c.args[i] = lw.expr(a)
		}
		return c
	case *ir.Return:
		if n.E == nil {
			return &returnStmt{}
		}
		return &returnStmt{e: lw.expr(n.E)}
	default:
		panic(fmt.Sprintf("unknown statement %T", s))
	}
}

// flatCost is a loop body's total step cost when the body holds only
// assignments and stores, which cannot end the function; 0 otherwise.
func flatCost(body block) uint64 {
	var total uint64
	for _, s := range body {
		switch s.s.(type) {
		case *assignStmt, *storeStmt:
			total += s.cost
		default:
			return 0
		}
	}
	return total
}

func (lw *lowerer) expr(e ir.Expr) expr {
	switch n := e.(type) {
	case *ir.Const:
		v := n.V
		return func(*executor, *frame) int64 { return v }
	case *ir.Var:
		s := lw.slot(n.Name)
		return func(_ *executor, fr *frame) int64 { return fr.vars[s] }
	case *ir.Bin:
		e, _ := lw.bin(n)
		return e
	case *ir.Load:
		return lw.load(n)
	default:
		panic(fmt.Sprintf("unknown expression %T", e))
	}
}

// Shapes of a lowered ir.Bin, the names bin reports.
const (
	shapeVarConst = "Bin(op, Var, Const)"
	shapeVarVar   = "Bin(op, Var, Var)"
	shapeIdx      = "Idx(Var, index, Const)"
	shapeIdxVar   = "Idx(Var, Var, Const)"
	shapeTree     = "Bin(op, expr, expr)"
)

// bin lowers n to a node made for its operator, in the shape it has: the
// arithmetic every guarded or chunked access computes — a variable and a
// constant, two variables, ir.Idx off a variable, Add(Var, Mul(index,
// Const)) — is one node, not a tree. The operators the suite evaluates
// most have a node of their own in each shape; every other operator's
// node calls evalBin, the one definition of each operator, which the
// tests hold every node to. shape names the shape chosen.
func (lw *lowerer) bin(n *ir.Bin) (e expr, shape string) {
	if l, ok := n.L.(*ir.Var); ok {
		x := lw.slot(l.Name)
		switch r := n.R.(type) {
		case *ir.Const:
			return binVarConst(n.Op, x, r.V), shapeVarConst
		case *ir.Var:
			return binVarVar(n.Op, x, lw.slot(r.Name)), shapeVarVar
		case *ir.Bin:
			if scale, ok := r.R.(*ir.Const); ok && n.Op == ir.OpAdd && r.Op == ir.OpMul {
				c := scale.V
				if iv, ok := r.L.(*ir.Var); ok {
					i := lw.slot(iv.Name)
					return func(_ *executor, fr *frame) int64 { return fr.vars[x] + fr.vars[i]*c }, shapeIdxVar
				}
				i := lw.expr(r.L)
				return func(ex *executor, fr *frame) int64 { return fr.vars[x] + i(ex, fr)*c }, shapeIdx
			}
		}
	}
	return binTree(n.Op, lw.expr(n.L), lw.expr(n.R)), shapeTree
}

func binVarConst(op ir.BinOp, x int, c int64) expr {
	switch op {
	case ir.OpAdd:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] + c }
	case ir.OpSub:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] - c }
	case ir.OpMul:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] * c }
	case ir.OpAnd:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] & c }
	case ir.OpShr:
		return func(_ *executor, fr *frame) int64 { return int64(uint64(fr.vars[x]) >> (uint64(c) & 63)) }
	case ir.OpLt:
		return func(_ *executor, fr *frame) int64 { return b2i(fr.vars[x] < c) }
	case ir.OpEq:
		return func(_ *executor, fr *frame) int64 { return b2i(fr.vars[x] == c) }
	}
	return func(_ *executor, fr *frame) int64 { return evalBin(op, fr.vars[x], c) }
}

func binVarVar(op ir.BinOp, x, y int) expr {
	switch op {
	case ir.OpAdd:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] + fr.vars[y] }
	case ir.OpSub:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] - fr.vars[y] }
	case ir.OpMul:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] * fr.vars[y] }
	case ir.OpAnd:
		return func(_ *executor, fr *frame) int64 { return fr.vars[x] & fr.vars[y] }
	case ir.OpShr:
		return func(_ *executor, fr *frame) int64 { return int64(uint64(fr.vars[x]) >> (uint64(fr.vars[y]) & 63)) }
	case ir.OpLt:
		return func(_ *executor, fr *frame) int64 { return b2i(fr.vars[x] < fr.vars[y]) }
	case ir.OpEq:
		return func(_ *executor, fr *frame) int64 { return b2i(fr.vars[x] == fr.vars[y]) }
	}
	return func(_ *executor, fr *frame) int64 { return evalBin(op, fr.vars[x], fr.vars[y]) }
}

// binTree is the general shape: both operands are subexpressions,
// evaluated left to right.
func binTree(op ir.BinOp, l, r expr) expr {
	switch op {
	case ir.OpAdd:
		return func(ex *executor, fr *frame) int64 { return l(ex, fr) + r(ex, fr) }
	case ir.OpSub:
		return func(ex *executor, fr *frame) int64 { return l(ex, fr) - r(ex, fr) }
	case ir.OpMul:
		return func(ex *executor, fr *frame) int64 { return l(ex, fr) * r(ex, fr) }
	case ir.OpAnd:
		return func(ex *executor, fr *frame) int64 { return l(ex, fr) & r(ex, fr) }
	case ir.OpShr:
		return func(ex *executor, fr *frame) int64 { return int64(uint64(l(ex, fr)) >> (uint64(r(ex, fr)) & 63)) }
	case ir.OpLt:
		return func(ex *executor, fr *frame) int64 { return b2i(l(ex, fr) < r(ex, fr)) }
	case ir.OpEq:
		return func(ex *executor, fr *frame) int64 { return b2i(l(ex, fr) == r(ex, fr)) }
	}
	return func(ex *executor, fr *frame) int64 { return evalBin(op, l(ex, fr), r(ex, fr)) }
}

// load lowers n: a chunked load goes through its stream's cursor, any
// other to the backend.
func (lw *lowerer) load(n *ir.Load) expr {
	addr, guarded, st := lw.expr(n.Addr), n.Guarded, lw.chunk(n.Chunk)
	return func(ex *executor, fr *frame) int64 {
		a := uint64(addr(ex, fr))
		if ex.opts.Profile != nil {
			ex.recordAccess(a)
		}
		if st != nil {
			return int64(ex.cursorFor(st, a, fr).Load(a))
		}
		return int64(ex.backend.Load(a, guarded))
	}
}

type frame struct {
	vars    []int64  // by slot; a variable never assigned reads 0
	cursors []Cursor // open chunk cursors by stream slot
	ret     int64
	done    bool
}

// call runs fn with its parameters evaluated from args in the caller's
// frame.
func (ex *executor) call(fn *function, args []expr, caller *frame) int64 {
	if len(args) != fn.nparams {
		panic(fmt.Sprintf("call of %s with %d args, want %d", fn.name, len(args), fn.nparams))
	}
	fr := frame{vars: make([]int64, fn.nslots), cursors: make([]Cursor, fn.nstreams)}
	for i, a := range args {
		fr.vars[i] = a(ex, caller)
	}
	ex.execBlock(fn.body, &fr)
	return fr.ret
}

// execBlock runs body, charging each statement's steps before it runs.
func (ex *executor) execBlock(body block, fr *frame) {
	for _, s := range body {
		if fr.done {
			return
		}
		ex.steps += s.cost
		if ex.steps > ex.opts.MaxSteps {
			panic("step budget exhausted")
		}
		s.s.exec(ex, fr)
	}
}

func (n *assignStmt) exec(ex *executor, fr *frame) { fr.vars[n.slot] = n.e(ex, fr) }

func (n *storeStmt) exec(ex *executor, fr *frame) {
	v := n.val(ex, fr)
	addr := uint64(n.addr(ex, fr))
	if ex.opts.Profile != nil {
		ex.recordAccess(addr)
	}
	if n.chunk != nil {
		ex.cursorFor(n.chunk, addr, fr).Store(addr, uint64(v))
	} else {
		ex.backend.Store(addr, uint64(v), n.guarded)
	}
}

func (n *ifStmt) exec(ex *executor, fr *frame) {
	if n.cond(ex, fr) != 0 {
		ex.execBlock(n.then, fr)
	} else {
		ex.execBlock(n.orElse, fr)
	}
}

func (n *mallocStmt) exec(ex *executor, fr *frame) {
	size := uint64(n.size(ex, fr))
	var addr uint64
	if n.src.PinLocal {
		// PGO-pruned site: the allocation lives in non-swappable
		// local memory on every backend.
		addr = ex.backend.LocalAlloc(size)
	} else {
		addr = ex.backend.Malloc(size)
	}
	if ex.opts.Profile != nil {
		ex.opts.Profile.RecordAlloc(n.src, size)
		ex.allocRanges = append(ex.allocRanges, allocRange{addr, addr + size, n.src})
	}
	fr.vars[n.dst] = int64(addr)
}

func (n *freeStmt) exec(ex *executor, fr *frame) {
	ex.backend.Free(uint64(n.ptr(ex, fr)))
}

func (n *localAllocStmt) exec(ex *executor, fr *frame) {
	fr.vars[n.dst] = int64(ex.backend.LocalAlloc(uint64(n.size(ex, fr))))
}

func (resetStatsStmt) exec(ex *executor, _ *frame) {
	ex.backend.Env().Reset()
}

func (n *callStmt) exec(ex *executor, fr *frame) {
	if n.callee == nil {
		f, ok := ex.prog.Funcs[n.name]
		if !ok {
			panic(fmt.Sprintf("call of undefined function %q", n.name))
		}
		n.callee = ex.function(f)
	}
	v := ex.call(n.callee, n.args, fr)
	if n.dst >= 0 {
		fr.vars[n.dst] = v
	}
}

func (n *returnStmt) exec(ex *executor, fr *frame) {
	if n.e != nil {
		fr.ret = n.e(ex, fr)
	}
	fr.done = true
}

func (n *forStmt) exec(ex *executor, fr *frame) {
	if n.src.Step <= 0 {
		panic(fmt.Sprintf("loop %s has non-positive step %d", n.src.IV, n.src.Step))
	}
	start := n.start(ex, fr)
	limit := n.limit(ex, fr)
	if ex.opts.Profile != nil {
		ex.opts.Profile.RecordEntry(n.src)
	}
	// Cursors owned by this loop are (re)opened lazily inside the body
	// and must close on every exit path, including Return.
	if len(n.streams) > 0 {
		defer fr.closeCursors(n.streams)
	}
	trips := uint64(0)
	for i := start; i < limit; i += n.src.Step {
		fr.vars[n.iv] = i
		trips++
		if n.flat != 0 && n.flat <= ex.opts.MaxSteps-ex.steps {
			// The whole trip fits the budget: charge it once. No
			// statement of a flat body can end the function.
			ex.steps += n.flat
			for _, s := range n.body {
				s.s.exec(ex, fr)
			}
			continue
		}
		ex.execBlock(n.body, fr)
		if fr.done {
			break
		}
	}
	if ex.opts.Profile != nil {
		ex.opts.Profile.RecordTrips(n.src, trips)
	}
}

func (fr *frame) closeCursors(slots []int) {
	for _, s := range slots {
		if c := fr.cursors[s]; c != nil {
			c.Close()
			fr.cursors[s] = nil
		}
	}
}

func (ex *executor) cursorFor(st *chunkStream, firstAddr uint64, fr *frame) Cursor {
	c := fr.cursors[st.slot]
	if c == nil {
		c = ex.backend.OpenCursor(firstAddr, st.stride, st.prefetch)
		fr.cursors[st.slot] = c
	}
	return c
}

func evalBin(op ir.BinOp, l, r int64) int64 {
	switch op {
	case ir.OpAdd:
		return l + r
	case ir.OpSub:
		return l - r
	case ir.OpMul:
		return l * r
	case ir.OpDiv:
		if r == 0 {
			panic("division by zero")
		}
		return l / r
	case ir.OpMod:
		if r == 0 {
			panic("modulo by zero")
		}
		return l % r
	case ir.OpAnd:
		return l & r
	case ir.OpOr:
		return l | r
	case ir.OpXor:
		return l ^ r
	case ir.OpShl:
		return l << (uint64(r) & 63)
	case ir.OpShr:
		return int64(uint64(l) >> (uint64(r) & 63))
	case ir.OpLt:
		return b2i(l < r)
	case ir.OpLe:
		return b2i(l <= r)
	case ir.OpGt:
		return b2i(l > r)
	case ir.OpGe:
		return b2i(l >= r)
	case ir.OpEq:
		return b2i(l == r)
	case ir.OpNe:
		return b2i(l != r)
	default:
		panic(fmt.Sprintf("unknown operator %v", op))
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
