package compiler

import "trackfm/internal/ir"

// Profile-guided remotability pruning, the §5 extension the paper
// proposes: "TrackFM could also benefit from a profiling stage that
// prunes the set of heap allocations available for remoting based on
// access frequency", citing MaPHeA's hardware-profile-guided heap
// placement. Allocations the profiler finds hot (and small enough to
// afford) are pinned to local memory: they are never remoted, and because
// the guard analysis then proves their accesses local, those accesses
// carry no guards at all.
//
// Run PruneRemotable BEFORE Compile: the guard-check analysis consumes
// the PinLocal marks it plants.

// The pruning decision's two bounds.
const (
	// pruneMinAccessesPerWord is the hotness threshold: sites whose
	// profiled access density is at or above it become pin candidates —
	// every word touched several times.
	pruneMinAccessesPerWord = 8
	// pruneMaxPinBytes caps how much memory may be pinned in total; local
	// memory is precious, so only small hot allocations qualify.
	pruneMaxPinBytes = 64 << 10
)

// PruneRemotable marks hot, small allocation sites PinLocal, hottest
// first, until the pin budget is spent. It returns the number of sites
// pinned. Sites the profile never saw stay remotable.
func PruneRemotable(prog *ir.Program, prof *Profile) int {
	if prof == nil {
		return 0
	}

	type cand struct {
		site  *ir.Malloc
		dens  float64
		bytes uint64
	}
	var cands []cand
	for _, f := range prog.Funcs {
		ir.VisitStmts(f.Body, func(s ir.Stmt) {
			m, ok := s.(*ir.Malloc)
			if !ok || m.PinLocal {
				return
			}
			bytes := prof.AllocBytes[m]
			if bytes == 0 || bytes > pruneMaxPinBytes {
				return
			}
			dens := prof.AccessesPerWord(m)
			if dens >= pruneMinAccessesPerWord {
				cands = append(cands, cand{m, dens, bytes})
			}
		}, nil)
	}
	// Hottest first; stable order by insertion for ties.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].dens > cands[j-1].dens; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var pinnedBytes uint64
	pinned := 0
	for _, c := range cands {
		if pinnedBytes+c.bytes > pruneMaxPinBytes {
			continue
		}
		c.site.PinLocal = true
		pinnedBytes += c.bytes
		pinned++
	}
	return pinned
}
