package aifm

import "testing"

// TestDegradedPoolStallsDirtyEvictionAndPrefetch pins what degraded mode
// means to the pool (the breaker that enters and leaves it is the far
// engine's, tested there; a miss failing fast is TestFailedFetchLeavesNoTrace's):
// a dirty resident — the only copy of its data — is not evicted, prefetch
// pauses outright, and once the degradation lifts the stalled eviction
// drains with the data intact.
func TestDegradedPoolStallsDirtyEvictionAndPrefetch(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 64*16, 64*2)
	evacuate(t, p, 3, 0x11)
	access(t, p, 0, 0, []byte{0x22}, true)

	p.Far().ForceDegrade(true)
	p.Prefetch(3)
	if p.Meta(3).Present() {
		t.Fatalf("a prefetch localized an object while degraded")
	}
	p.EvacuateAll()
	if env.Counters.EvictionStalls == 0 {
		t.Fatalf("no eviction stall recorded for dirty object in degraded mode")
	}
	if !p.Meta(0).Present() {
		t.Fatalf("dirty object evicted while the pool was degraded")
	}

	p.Far().ForceDegrade(false)
	p.EvacuateAll()
	if p.Meta(0).Present() {
		t.Fatalf("EvacuateAll after recovery left the dirty object resident")
	}
	var got [1]byte
	access(t, p, 0, 0, got[:], false)
	if got[0] != 0x22 {
		t.Fatalf("read %#x after stall-then-heal, want 0x22", got[0])
	}
}
