package compiler

import (
	"fmt"
	"time"

	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

// Options configures one compilation.
type Options struct {
	// ObjectSize is the compile-time AIFM object size the cost model
	// evaluates densities against (default 4096).
	ObjectSize int
	// Chunking selects the loop-chunking policy.
	Chunking ChunkMode
	// Prefetch plants compiler-directed prefetches on chunked streams.
	Prefetch bool
	// O1 runs the redundancy-elimination pre-optimization before the
	// TrackFM passes (the TFM/O1 configuration of Fig. 17b).
	O1 bool
	// Profile supplies loop coverage from a profiling run; nil falls
	// back to static trip estimates.
	Profile *Profile
}

// Stats reports what the pipeline did — the §4.6 compilation-cost metrics
// plus per-pass counts.
type Stats struct {
	Funcs int

	// O1 pre-optimization.
	MemAccessesBefore int
	MemAccessesAfter  int
	LoadsEliminated   int

	// Guard-check analysis.
	GuardedAccesses   int
	UnguardedAccesses int

	// Loop chunking.
	LoopsSeen       int
	LoopsChunked    int
	StreamsDetected int
	StreamsChunked  int
	StreamsRejected int

	// Libc transformation.
	AllocSitesTransformed int
	// PGO remotability pruning.
	AllocSitesPinned int

	// Code-size model: each guarded access expands from one instruction
	// to the 14-instruction guard sequence; chunked accesses get the
	// 3-instruction boundary check plus per-loop cursor setup.
	NodesBefore    int
	NodesAfter     int
	CodeSizeFactor float64

	CompileTime time.Duration
}

// String renders the stats in the layout the trackfm-compile CLI prints.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"funcs=%d mem-accesses=%d->%d (O1 removed %d) guarded=%d unguarded=%d "+
			"loops=%d chunked=%d streams=%d/%d (rejected %d) allocs=%d "+
			"code-size=x%.2f compile=%s",
		s.Funcs, s.MemAccessesBefore, s.MemAccessesAfter, s.LoadsEliminated,
		s.GuardedAccesses, s.UnguardedAccesses,
		s.LoopsSeen, s.LoopsChunked, s.StreamsChunked, s.StreamsDetected,
		s.StreamsRejected, s.AllocSitesTransformed,
		s.CodeSizeFactor, s.CompileTime.Round(time.Microsecond))
}

// Compile runs the full pipeline of Figure 2 over prog, annotating it in
// place, and returns the per-pass statistics. Compiling an already
// annotated program is an error; build a fresh program per configuration.
func Compile(prog *ir.Program, opts Options) (*Stats, error) {
	start := time.Now()
	if opts.ObjectSize == 0 {
		opts.ObjectSize = 4096
	}
	costs := sim.DefaultCosts() // chunking decisions use the paper's calibration
	if prog.RuntimeInit {
		return nil, fmt.Errorf("compiler: program already compiled")
	}
	if err := Validate(prog); err != nil {
		return nil, err
	}

	stats := &Stats{Funcs: len(prog.Funcs)}
	for _, f := range prog.Funcs {
		stats.MemAccessesBefore += ir.CountMemAccesses(f.Body)
	}

	// O1 pre-optimization (optional, §4.5): fewer loads survive to the
	// guard pass, so fewer guards are injected. Without it the bodies, and
	// so their count, are unchanged.
	stats.MemAccessesAfter = stats.MemAccessesBefore
	if opts.O1 {
		stats.MemAccessesAfter = 0
		for _, f := range prog.Funcs {
			stats.LoadsEliminated += o1Eliminate(f)
			stats.MemAccessesAfter += ir.CountMemAccesses(f.Body)
		}
	}
	for _, f := range prog.Funcs {
		stats.NodesBefore += ir.CountNodes(f.Body)
	}

	// Runtime initialization pass: hooks in main (§3.1), which hand the
	// runtime the one object size everything below is priced against.
	prog.RuntimeInit = true
	prog.ObjectSize = opts.ObjectSize

	// Guard check analysis + transform (§3.1, §3.3).
	for _, f := range prog.Funcs {
		g, u := guardAnalysis(f)
		stats.GuardedAccesses += g
		stats.UnguardedAccesses += u
	}

	// Loop chunking analysis + transform (§3.4).
	nextStream := 0
	for _, f := range prog.Funcs {
		cs := chunkingPass(f, opts.Chunking, opts.ObjectSize, opts.Prefetch,
			&costs, opts.Profile, &nextStream)
		stats.LoopsSeen += cs.LoopsSeen
		stats.LoopsChunked += cs.LoopsChunked
		stats.StreamsDetected += cs.StreamsDetected
		stats.StreamsChunked += cs.StreamsChunked
		stats.StreamsRejected += cs.StreamsRejected
	}

	// Libc transformation pass (§3.1): retarget allocation call sites.
	// Sites pinned local by the PGO pruning pass stay on the ordinary
	// allocator (they are deliberately not remotable).
	for _, f := range prog.Funcs {
		ir.VisitStmts(f.Body, func(s ir.Stmt) {
			m, ok := s.(*ir.Malloc)
			if !ok {
				return
			}
			if m.PinLocal {
				stats.AllocSitesPinned++
				return
			}
			if !m.TrackFM {
				m.TrackFM = true
				stats.AllocSitesTransformed++
			}
		}, nil)
	}

	// Code-size model (§4.6): guards expand accesses 1 -> 14
	// instructions; chunked accesses carry a 3-instruction check and
	// each chunked loop gains cursor setup/teardown (~10 nodes).
	expandedGuards := stats.GuardedAccesses - stats.StreamsChunked
	if expandedGuards < 0 {
		expandedGuards = 0
	}
	added := expandedGuards*13 + stats.StreamsChunked*2 + stats.LoopsChunked*10
	stats.NodesAfter = stats.NodesBefore + added
	if stats.NodesBefore > 0 {
		stats.CodeSizeFactor = float64(stats.NodesAfter) / float64(stats.NodesBefore)
	}
	stats.CompileTime = time.Since(start)
	return stats, nil
}
