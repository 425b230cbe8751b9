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

// TestDirtiedSwapInReencodes is the fastswap twin of aifm's test: a page
// swapped in from the compressed cache and written before reclaim must be
// compressed again, not re-admitted from the copy its swap-in kept; a page
// only read goes back as that copy.
func TestDirtiedSwapInReencodes(t *testing.T) {
	s := newTestSwap(t, 1<<20, 4096, func(c *Config) { // one frame
		c.CompressedBudget = 1 << 16
	})
	env := s.Env()
	a := s.MustMalloc(4096)
	b := s.MustMalloc(4096)
	s.StoreU64(a, 111)
	s.StoreU64(b, 222) // reclaims A: compressed
	s.LoadU64(a)       // swaps A in from the cache, reclaims B
	s.StoreU64(a, 333) // dirties A
	s.LoadU64(b)       // reclaims dirty A, swaps B in
	// Reclaims B unwritten since its swap-in: its kept copy goes back.
	if got := s.LoadU64(a); got != 333 {
		t.Fatalf("page A swapped in as %d, want the write 333", got)
	}
	// Likewise A, read since its swap-in but not written.
	if got := s.LoadU64(b); got != 222 {
		t.Fatalf("page B swapped in as %d, want 222", got)
	}
	if hits := sim.Load(&env.Counters.TierHits); hits != 4 {
		t.Fatalf("TierHits = %d, want 4", hits)
	}
	if reused := s.Far().Tier().Stats().Snapshot().Reused; reused != 2 {
		t.Fatalf("Reused = %d, want 2: the two clean reclaims, not the dirty one", reused)
	}
}
