package autotune

import (
	"testing"

	"trackfm/internal/ir"
	"trackfm/internal/workloads/stream"
)

// gatherProgram builds a workload with fine-grained random access and no
// spatial locality: single-word reads scattered over a large array — the
// access pattern for which the paper's Fig. 9 shows small objects winning.
func gatherProgram(n, lookups int64) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(ir.Fn("main", nil,
		&ir.Malloc{Dst: "a", Size: ir.C(n * 8)},
		ir.Loop("i", ir.C(0), ir.C(n),
			ir.St(ir.Idx(ir.V("a"), ir.V("i"), 8), ir.V("i")),
		),
		ir.Let("x", ir.C(12345)),
		ir.Let("acc", ir.C(0)),
		ir.Loop("t", ir.C(0), ir.C(lookups),
			// x = x*1103515245 + 12345 (mod 2^24); idx = x & (n-1)
			ir.Let("x", ir.B(ir.OpAnd,
				ir.Add(ir.Mul(ir.V("x"), ir.C(1103515245)), ir.C(12345)),
				ir.C(0xFFFFFF))),
			ir.Let("acc", ir.B(ir.OpAnd,
				ir.Add(ir.V("acc"),
					ir.Ld(ir.Idx(ir.V("a"), ir.B(ir.OpAnd, ir.V("x"), ir.C(n-1)), 8))),
				ir.C(0xFFFFFF))),
		),
		&ir.Return{E: ir.V("acc")},
	))
	return p
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatalf("empty config accepted")
	}
	if _, err := Run(Config{Build: func() *ir.Program { return gatherProgram(64, 1) }}); err == nil {
		t.Fatalf("missing sizes accepted")
	}
}

func TestPicksLargeObjectsForStreaming(t *testing.T) {
	// STREAM-like spatial locality: the tuner must pick a large size
	// (paper Fig. 10: 4KB best).
	const n = 1 << 14
	ws := stream.WorkingSetBytes(stream.Sum, n)
	res, err := Run(Config{
		Build:       func() *ir.Program { return stream.Program(stream.Sum, n) },
		HeapSize:    ws * 2,
		LocalBudget: ws / 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Best < 2048 {
		t.Fatalf("tuner picked %dB for streaming access, want >= 2KB\ntrials: %+v", res.Best, res.Trials)
	}
	if len(res.Trials) != len(SearchSpace) {
		t.Fatalf("ran %d trials", len(res.Trials))
	}
}

func TestPicksSmallObjectsForRandomAccess(t *testing.T) {
	// Fine-grained random access under pressure: small objects win
	// (paper Fig. 9).
	const n = 1 << 15 // 256 KB array
	res, err := Run(Config{
		Build:       func() *ir.Program { return gatherProgram(n, 20000) },
		HeapSize:    n * 8 * 2,
		LocalBudget: n * 8 / 8, // 12.5% local
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Best > 512 {
		t.Fatalf("tuner picked %dB for random fine-grained access, want <= 512B\ntrials: %+v", res.Best, res.Trials)
	}
}

func TestTrialsConsistent(t *testing.T) {
	const n = 1 << 12
	res, err := Run(Config{
		Build:       func() *ir.Program { return gatherProgram(n, 2000) },
		HeapSize:    n * 8 * 2,
		LocalBudget: n * 8,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tr := range res.Trials {
		if tr.Checksum != res.Trials[0].Checksum {
			t.Fatalf("checksums differ across object sizes")
		}
		if tr.Cycles == 0 || tr.Guards == 0 {
			t.Fatalf("empty trial %+v", tr)
		}
	}
}
