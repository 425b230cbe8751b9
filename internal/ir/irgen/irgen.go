// Package irgen generates random — but well-formed, terminating, and
// memory-safe — mini-IR programs for differential testing. The same seed
// always yields the same program, so a test can regenerate a fresh copy
// per compilation configuration (compiler passes annotate programs in
// place) and require every backend and every pass combination to compute
// the same result.
//
// Generated programs exercise the surface the TrackFM pipeline cares
// about: heap and stack arrays, nested counted loops, affine and derived
// (let-bound) indices, gathers through loaded indices (masked to stay in
// bounds), conditionals, accumulators, and a final checksum.
package irgen

import (
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// The bounds on a generated program's shape.
const (
	maxArrays    = 3    // heap arrays: 1..maxArrays
	maxLoopDepth = 3    // loop nesting
	maxTopStmts  = 4    // top-level statement groups
	maxElems     = 1024 // array length (a power of two)
)

type gen struct {
	rng    *sim.RNG
	arrays []array // heap arrays
	local  array   // one stack array
	temps  int
	ivs    []iv // active loop IVs, innermost last
}

type array struct {
	name  string
	elems int64 // power of two
	heap  bool
}

type iv struct {
	name  string
	limit int64
}

// Generate builds a deterministic random program for seed.
func Generate(seed uint64) *ir.Program {
	g := &gen{rng: sim.NewRNG(seed ^ 0xD1FF)}
	var body []ir.Stmt

	// Heap arrays, power-of-two sizes so gathers can be masked.
	nArrays := 1 + g.rng.Intn(maxArrays)
	for i := 0; i < nArrays; i++ {
		elems := int64(64) << g.rng.Intn(5) // 64..maxElems
		a := array{name: "h" + letter(i), elems: elems, heap: true}
		g.arrays = append(g.arrays, a)
		body = append(body, &ir.Malloc{Dst: a.name, Size: ir.C(elems * 8)})
		body = append(body, g.fillLoop(a, int64(i+1)))
	}
	// One stack array, to exercise the guard analysis's local pruning.
	g.local = array{name: "stk", elems: 64}
	body = append(body, &ir.LocalAlloc{Dst: g.local.name, Size: ir.C(64 * 8)})
	body = append(body, g.fillLoop(g.local, 7))

	body = append(body, ir.Let("acc", ir.C(0)))
	n := 1 + g.rng.Intn(maxTopStmts)
	for i := 0; i < n; i++ {
		body = append(body, g.loopNest(1))
	}

	// Checksum every array so stores matter.
	for _, a := range append(g.arrays, g.local) {
		ivn := g.freshTemp("ci")
		body = append(body, ir.Loop(ivn, ir.C(0), ir.C(a.elems),
			ir.Let("acc", mask(ir.Add(ir.V("acc"), ir.Ld(ir.Idx(ir.V(a.name), ir.V(ivn), 8))))),
		))
	}
	body = append(body, &ir.Return{E: ir.V("acc")})

	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil, body...))
	return p
}

func letter(i int) string { return string(rune('a' + i%26)) }

func mask(e ir.Expr) ir.Expr { return ir.B(ir.OpAnd, e, ir.C(0xFFFFFF)) }

func (g *gen) freshTemp(prefix string) string {
	g.temps++
	return prefix + itoa(g.temps)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// fillLoop initializes an array with a value pattern.
func (g *gen) fillLoop(a array, mult int64) ir.Stmt {
	ivn := g.freshTemp("f")
	return ir.Loop(ivn, ir.C(0), ir.C(a.elems),
		ir.St(ir.Idx(ir.V(a.name), ir.V(ivn), 8),
			ir.B(ir.OpMod, ir.Mul(ir.V(ivn), ir.C(mult*13+1)), ir.C(509))),
	)
}

// loopNest emits a loop nest of random depth whose body reads and writes
// the arrays safely.
func (g *gen) loopNest(depth int) ir.Stmt {
	ivn := g.freshTemp("i")
	limit := int64(4) << g.rng.Intn(5) // 4..64 trips
	g.ivs = append(g.ivs, iv{name: ivn, limit: limit})
	var body []ir.Stmt
	stmts := 1 + g.rng.Intn(3)
	for s := 0; s < stmts; s++ {
		switch {
		case depth < maxLoopDepth && g.rng.Intn(3) == 0:
			body = append(body, g.loopNest(depth+1))
		case g.rng.Intn(2) == 0:
			body = append(body, g.storeStmt())
		default:
			body = append(body, g.accumStmt())
		}
	}
	g.ivs = g.ivs[:len(g.ivs)-1]
	return ir.Loop(ivn, ir.C(0), ir.C(limit), body...)
}

// pickArray chooses any array (heap-biased).
func (g *gen) pickArray() array {
	if g.rng.Intn(5) == 0 {
		return g.local
	}
	return g.arrays[g.rng.Intn(len(g.arrays))]
}

// index builds a provably in-bounds element index expression for arr.
func (g *gen) index(arr array) ir.Expr {
	switch g.rng.Intn(4) {
	case 0:
		// Constant index.
		return ir.C(int64(g.rng.Intn(int(arr.elems))))
	case 1:
		// Gather through a loaded value, masked in bounds.
		src := g.arrays[g.rng.Intn(len(g.arrays))]
		inner := g.index(src)
		return ir.B(ir.OpAnd, ir.Ld(ir.Idx(ir.V(src.name), inner, 8)), ir.C(arr.elems-1))
	default:
		// Affine in the active IVs, masked to stay in bounds. The mask
		// keeps it safe even when coefficients overflow the length;
		// power-of-two lengths make the mask exact.
		e := ir.Expr(ir.C(int64(g.rng.Intn(8))))
		for _, v := range g.ivs {
			if g.rng.Intn(2) == 0 {
				continue
			}
			c := int64(1 + g.rng.Intn(4))
			e = ir.Add(e, ir.Mul(ir.V(v.name), ir.C(c)))
		}
		return ir.B(ir.OpAnd, e, ir.C(arr.elems-1))
	}
}

// value builds a side-effect-bounded value expression.
func (g *gen) value() ir.Expr {
	switch g.rng.Intn(4) {
	case 0:
		return ir.C(int64(g.rng.Intn(1000)))
	case 1:
		if len(g.ivs) > 0 {
			v := g.ivs[g.rng.Intn(len(g.ivs))]
			return ir.Mul(ir.V(v.name), ir.C(int64(1+g.rng.Intn(5))))
		}
		return ir.C(int64(g.rng.Intn(1000)))
	case 2:
		a := g.pickArray()
		return ir.Ld(ir.Idx(ir.V(a.name), g.index(a), 8))
	default:
		return mask(ir.Add(g.valueShallow(), g.valueShallow()))
	}
}

func (g *gen) valueShallow() ir.Expr {
	if g.rng.Intn(2) == 0 {
		return ir.C(int64(g.rng.Intn(100)))
	}
	a := g.pickArray()
	return ir.Ld(ir.Idx(ir.V(a.name), g.index(a), 8))
}

// storeStmt writes a value, sometimes behind a conditional, sometimes
// through a let-bound derived index (exercising the substitution path in
// the stride analysis).
func (g *gen) storeStmt() ir.Stmt {
	a := g.pickArray()
	idx := g.index(a)
	st := ir.St(ir.Idx(ir.V(a.name), idx, 8), mask(g.value()))
	switch g.rng.Intn(3) {
	case 0:
		return &ir.If{
			Cond: ir.B(ir.OpLt, g.value(), g.value()),
			Then: []ir.Stmt{st},
			Else: []ir.Stmt{ir.Let("acc", mask(ir.Add(ir.V("acc"), ir.C(1))))},
		}
	default:
		return st
	}
}

// accumStmt folds a load into the global accumulator.
func (g *gen) accumStmt() ir.Stmt {
	a := g.pickArray()
	if g.rng.Intn(3) == 0 && len(g.ivs) > 0 {
		// Derived index through a let: k = affine(ivs); use a[k].
		k := g.freshTemp("k")
		inner := g.ivs[len(g.ivs)-1]
		def := ir.B(ir.OpAnd,
			ir.Add(ir.Mul(ir.V(inner.name), ir.C(int64(1+g.rng.Intn(3)))), ir.C(int64(g.rng.Intn(4)))),
			ir.C(a.elems-1))
		return &ir.If{Cond: ir.C(1), Then: []ir.Stmt{
			ir.Let(k, def),
			ir.Let("acc", mask(ir.Add(ir.V("acc"), ir.Ld(ir.Idx(ir.V(a.name), ir.V(k), 8))))),
		}}
	}
	return ir.Let("acc", mask(ir.Add(ir.V("acc"), ir.Ld(ir.Idx(ir.V(a.name), g.index(a), 8)))))
}

// HeapBytes reports a safe heap size for any program Generate can
// produce.
func HeapBytes() uint64 { return (maxArrays + 1) * maxElems * 8 * 2 }
