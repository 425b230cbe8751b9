// Package stream builds the STREAM benchmark (McCalpin) as mini-IR
// programs for the compiler pipeline: sequential sweeps over large arrays
// of 8-byte elements, the paper's vehicle for the loop-chunking (Fig. 7),
// object-size (Fig. 10), prefetching (Fig. 11), and Fastswap-comparison
// (Fig. 12) experiments.
package stream

import (
	"fmt"

	"trackfm/internal/ir"
)

// Kernel selects a STREAM kernel.
type Kernel int

const (
	// Sum: sum += a[i] — one guarded access per iteration.
	Sum Kernel = iota
	// Copy: b[i] = a[i] — two guarded accesses per iteration.
	Copy
	// Scale: b[i] = q * a[i].
	Scale
	// Add: c[i] = a[i] + b[i] — three guarded accesses.
	Add
	// Triad: c[i] = a[i] + q * b[i].
	Triad
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case Sum:
		return "Sum"
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	default:
		return "unknown"
	}
}

// BytesPerIteration reports how many array bytes one iteration touches,
// for bandwidth reporting (the STREAM metric of Fig. 10).
func (k Kernel) BytesPerIteration() uint64 {
	switch k {
	case Sum:
		return 8
	case Copy, Scale:
		return 16
	case Add, Triad:
		return 24
	default:
		return 0
	}
}

// Program builds the kernel over n-element arrays. Arrays are initialized
// with a[i] = i in a first (untimed in the harness, but still simulated)
// loop; the kernel loop follows. The program returns a checksum so
// correctness is verifiable across backends.
func Program(k Kernel, n int64) *ir.Program {
	p := ir.NewProgram()
	a := ir.V("a")
	idx := func(base ir.Expr, iv string) ir.Expr { return ir.Idx(base, ir.V(iv), 8) }

	body := []ir.Stmt{
		&ir.Malloc{Dst: "a", Size: ir.C(n * 8)},
		ir.Loop("i0", ir.C(0), ir.C(n),
			ir.St(idx(a, "i0"), ir.V("i0")),
		),
	}
	needB := k != Sum
	needC := k == Add || k == Triad
	if needB {
		body = append(body, &ir.Malloc{Dst: "b", Size: ir.C(n * 8)})
	}
	if needC {
		body = append(body, &ir.Malloc{Dst: "c", Size: ir.C(n * 8)})
	}
	if needB {
		// All arrays are initialized so the full working set is live,
		// as in the paper ("total working set size ... fixed to aid in
		// comparison").
		body = append(body, ir.Loop("i1", ir.C(0), ir.C(n),
			ir.St(idx(ir.V("b"), "i1"), ir.Mul(ir.V("i1"), ir.C(2))),
		))
	}
	if needC {
		body = append(body, ir.Loop("i2", ir.C(0), ir.C(n),
			ir.St(idx(ir.V("c"), "i2"), ir.C(0)),
		))
	}

	// Initialization done: reset the clock so the run measures the
	// kernel only, as STREAM itself reports kernel bandwidth.
	body = append(body, &ir.Call{Name: ir.ResetStatsCall})

	const q = 3
	switch k {
	case Sum:
		body = append(body,
			ir.Let("sum", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.C(n),
				ir.Let("sum", ir.Add(ir.V("sum"), ir.Ld(idx(a, "i")))),
			),
			&ir.Return{E: ir.V("sum")},
		)
	case Copy:
		body = append(body,
			ir.Loop("i", ir.C(0), ir.C(n),
				ir.St(idx(ir.V("b"), "i"), ir.Ld(idx(a, "i"))),
			),
			&ir.Return{E: ir.Ld(idx(ir.V("b"), "checkIdx"))},
		)
	case Scale:
		body = append(body,
			ir.Loop("i", ir.C(0), ir.C(n),
				ir.St(idx(ir.V("b"), "i"), ir.Mul(ir.C(q), ir.Ld(idx(a, "i")))),
			),
			&ir.Return{E: ir.Ld(idx(ir.V("b"), "checkIdx"))},
		)
	case Add:
		body = append(body,
			ir.Loop("i", ir.C(0), ir.C(n),
				ir.St(idx(ir.V("c"), "i"),
					ir.Add(ir.Ld(idx(a, "i")), ir.Ld(idx(ir.V("b"), "i")))),
			),
			&ir.Return{E: ir.Ld(idx(ir.V("c"), "checkIdx"))},
		)
	case Triad:
		body = append(body,
			ir.Loop("i", ir.C(0), ir.C(n),
				ir.St(idx(ir.V("c"), "i"),
					ir.Add(ir.Ld(idx(a, "i")), ir.Mul(ir.C(q), ir.Ld(idx(ir.V("b"), "i"))))),
			),
			&ir.Return{E: ir.Ld(idx(ir.V("c"), "checkIdx"))},
		)
	default:
		panic(fmt.Sprintf("stream: unknown kernel %d", k))
	}

	// checkIdx picks a deterministic element for the returned checksum.
	stmts := []ir.Stmt{ir.Let("checkIdx", ir.C(n-1))}
	stmts = append(stmts, body...)
	p.AddFunc(ir.Fn("main", nil, stmts...))
	return p
}

// Expected returns the checksum Program(k, n) must produce.
func Expected(k Kernel, n int64) int64 {
	last := n - 1
	const q = 3
	switch k {
	case Sum:
		return n * (n - 1) / 2
	case Copy:
		return last
	case Scale:
		return q * last
	case Add:
		return last + 2*last
	case Triad:
		return last + q*2*last
	default:
		return 0
	}
}

// WorkingSetBytes reports the far-heap footprint of Program(k, n).
func WorkingSetBytes(k Kernel, n int64) uint64 {
	arrays := uint64(1)
	if k != Sum {
		arrays++
	}
	if k == Add || k == Triad {
		arrays++
	}
	return arrays * uint64(n) * 8
}
