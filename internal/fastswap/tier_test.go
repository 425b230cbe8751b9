package fastswap

import (
	"testing"

	"trackfm/internal/sim"
)

// TestTierHitIsMinorFault pins the zswap framing of the compressed tier
// on the fastswap baseline: a fault served by decompressing from the
// swap cache is a MINOR fault (no wire crossed) costing the kernel fault
// path plus the decompress term — an order of magnitude under the ~34K
// cycles the same fault pays as an RDMA major fault without the tier.
func TestTierHitIsMinorFault(t *testing.T) {
	s := newTestSwap(t, 1<<20, 4096, func(c *Config) { // one frame
		c.CompressedBudget = 1 << 16
	})
	env := s.Env()
	a := s.MustMalloc(4096)
	b := s.MustMalloc(4096)
	s.StoreU64(a, 111) // page A mapped, dirty
	s.StoreU64(b, 222) // evicts A: push to remote + compressed copy parked

	before := env.Clock.Cycles()
	if got := s.LoadU64(a); got != 111 {
		t.Fatalf("page A data lost through the tier: %d", got)
	}
	charged := env.Clock.Cycles() - before
	if env.Counters.MajorFaults != 0 {
		t.Fatalf("tier hit counted as a major fault (MajorFaults = %d)", env.Counters.MajorFaults)
	}
	if hits := sim.Load(&env.Counters.TierHits); hits != 1 {
		t.Fatalf("TierHits = %d, want 1", hits)
	}
	// The fault charges the kernel path, the eviction of page B that
	// makes room (including its compression), and the decompression of
	// page A — but never the RDMA fixed cost.
	if charged >= env.Costs.SwapFaultLocal+env.Costs.RemotePageFetch(4096) {
		t.Fatalf("tier hit charged %d cycles, not cheaper than a major fault", charged)
	}
}
