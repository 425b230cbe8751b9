package compiler

import (
	"trackfm/internal/core"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// ChunkMode selects the loop-chunking policy, the axis of Figs. 8 and 15.
type ChunkMode int

const (
	// ChunkNone applies the naive transformation only: every heap access
	// gets a per-access guard.
	ChunkNone ChunkMode = iota
	// ChunkAll chunks every detected induction-variable stream
	// indiscriminately ("all loops" in the paper's figures).
	ChunkAll
	// ChunkCostModel chunks only streams the §3.4 cost model predicts to
	// benefit, using profiled trip counts when available ("high-density
	// loops only").
	ChunkCostModel
)

// String implements fmt.Stringer.
func (m ChunkMode) String() string {
	switch m {
	case ChunkNone:
		return "none"
	case ChunkAll:
		return "all-loops"
	case ChunkCostModel:
		return "cost-model"
	default:
		return "unknown"
	}
}

// chunkStats tallies the loop-chunking analysis outcome.
type chunkStats struct {
	LoopsSeen       int
	LoopsChunked    int
	StreamsDetected int
	StreamsChunked  int
	StreamsRejected int // rejected by the cost model
}

// chunkingPass runs the loop-chunking analysis and transform over f. The
// "transform" is the in-place annotation: qualifying accesses receive a
// ChunkInfo and their owning loop records the stream, which is exactly
// the information the backend needs to run the cursor protocol of Fig. 5.
func chunkingPass(f *ir.Func, mode ChunkMode, objectSize int, prefetch bool,
	costs *sim.CostModel, prof *Profile, nextStream *int) chunkStats {

	var stats chunkStats
	if mode == ChunkNone {
		return stats
	}
	subst := buildSubstMap(f)

	type loopCtx struct {
		loop      *ir.For
		mutated   map[string]bool
		nestedIVs map[string]bool
	}
	var stack []loopCtx

	tripsOf := func(l *ir.For) uint64 {
		if prof != nil {
			if t, ok := prof.AvgTrips(l); ok {
				return t
			}
		}
		if t, ok := staticTrips(l); ok {
			return t
		}
		return 1 << 20 // assume hot unless we know better
	}

	// decide applies the cost model at stack level `level`. The accesses
	// the cursor serves per loop entry are the *product* of the trip
	// counts from the owner down to the access (a dense i/j/k stencil
	// nest is one long stream of the outermost IV, even though each
	// inner loop is short) — this is where dependence-graph IV analysis
	// beats per-loop trip counting.
	decide := func(level int, stride int64) bool {
		if mode == ChunkAll {
			return true
		}
		trips := uint64(1)
		const cap = uint64(1) << 32
		for i := level; i < len(stack); i++ {
			t := tripsOf(stack[i].loop)
			if t == 0 {
				t = 1
			}
			if trips >= cap/t {
				trips = cap
				break
			}
			trips *= t
		}
		return core.ChunkingProfitable(costs, trips, int(stride), objectSize)
	}

	// tryChunk walks the loop stack from the innermost level outward,
	// looking for a level at which the address moves with a positive
	// constant stride AND the cost model approves. An inner level
	// rejected by the model (density too low, trip count too short) is
	// not the end: the same access may form a coarser, profitable
	// stream with respect to an enclosing loop — e.g. k-means' point
	// array is a bad stride-8 stream per dimension but a good stride-32
	// stream per point, which is how the paper ends up optimizing 27 of
	// the 103 detected pointers. The cost model always uses the
	// innermost nonzero stride as the element size: a dense i/j/k nest
	// chunked at i still crosses object boundaries only once per
	// object's worth of k iterations.
	tryChunk := func(addr ir.Expr, set func(*ir.ChunkInfo)) {
		detected := false
		var innerStride int64
		for i := len(stack) - 1; i >= 0; i-- {
			ctx := stack[i]
			stride, ok := strideOf(addr, ctx.loop.IV, ctx.mutated, ctx.nestedIVs, subst, 0)
			if !ok {
				break // non-linear here, and thus in every outer loop too
			}
			if stride == 0 {
				continue // invariant at this depth; try the outer loop
			}
			if stride < 0 || stride > int64(objectSize) {
				continue
			}
			if !detected {
				detected = true
				innerStride = stride
				stats.StreamsDetected++
			}
			if !decide(i, innerStride) {
				continue
			}
			id := *nextStream
			*nextStream++
			set(&ir.ChunkInfo{Stride: innerStride, Prefetch: prefetch, StreamID: id})
			if !ctx.loop.Chunked {
				ctx.loop.Chunked = true
				stats.LoopsChunked++
			}
			ctx.loop.StreamIDs = append(ctx.loop.StreamIDs, id)
			stats.StreamsChunked++
			return
		}
		if detected {
			stats.StreamsRejected++
		}
	}

	// The walk visits every operand in evaluation order; cur is the
	// statement whose parts are being visited (nil at the function's body).
	var cur ir.Stmt
	visitLoad := func(x ir.Expr) {
		if ld, ok := x.(*ir.Load); ok && ld.Guarded && ld.Chunk == nil {
			tryChunk(ld.Addr, func(ci *ir.ChunkInfo) { ld.Chunk = ci })
		}
	}
	expr := func(e *ir.Expr) {
		// Chunk a store itself after its value and before descending into
		// its address (whose nested loads may also chunk).
		if st, ok := cur.(*ir.Store); ok && e == &st.Addr && st.Guarded && st.Chunk == nil {
			tryChunk(st.Addr, func(ci *ir.ChunkInfo) { st.Chunk = ci })
		}
		ir.VisitExprs(*e, visitLoad)
	}
	enter := func(l *ir.For) {
		stats.LoopsSeen++
		mutated, nestedIVs := loopVars(l)
		stack = append(stack, loopCtx{loop: l, mutated: mutated, nestedIVs: nestedIVs})
	}
	// walk visits a body of cur's; a loop's body is walked with the loop's
	// context pushed.
	var walk func(*[]ir.Stmt)
	walk = func(body *[]ir.Stmt) {
		outer := cur
		l, isLoop := outer.(*ir.For)
		if isLoop {
			enter(l)
		}
		for _, s := range *body {
			cur = s
			ir.Parts(s, expr, walk)
		}
		if isLoop {
			stack = stack[:len(stack)-1]
		}
		cur = outer
	}
	walk(&f.Body)
	return stats
}
