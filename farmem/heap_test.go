package farmem

import (
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/remote"
)

// TestResetStatsKeepsBreakerTime: the far engine's deadlines, and the
// deadline-miss breaker they feed, keep time by the heap's clock — a
// deadline in flight is an absolute reading of it — so ResetStats between
// ops must neither rewind the clock nor book a deadline miss. A deadline
// stamped before the reset has the same budget left after it, however long
// the program had already run, and the misses that follow still meet
// their OpDeadline.
func TestResetStatsKeepsBreakerTime(t *testing.T) {
	const opDeadline = 1 << 24 // cycles: ~7 ms, far above one simulated round trip
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 14, ObjectBytes: 256,
		RemoteConfig: fabric.RemoteConfig{OpDeadline: opDeadline}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const n = 1 << 14 // 128 KiB of elements over 16 KiB of local memory
	s, _ := NewUint64s(h, n)
	for i := 0; i < n; i++ {
		s.Set(i, uint64(i))
	}
	h.env.Clock.Advance(1 << 40) // the program has been running for a while

	before := h.env.Clock.Cycles()
	inFlight := fabric.DeadlineAfter(&h.env.Clock, opDeadline)
	h.ResetStats()
	if now := h.env.Clock.Cycles(); now < before {
		t.Fatalf("ResetStats moved the clock back from %d to %d", before, now)
	}
	if left := inFlight.Remaining(); left != opDeadline {
		t.Fatalf("a deadline stamped before ResetStats has %d cycles left after it, want %d", left, opDeadline)
	}
	if secs := h.Stats().SimulatedSeconds; secs != 0 {
		t.Errorf("SimulatedSeconds = %v right after ResetStats, want 0", secs)
	}

	// Every 32nd element is another object: each access misses, evicts a
	// dirty object (a push) and fetches, each under a fresh deadline.
	for i := 0; i < n; i += 32 {
		if got := s.At(i); got != uint64(i) {
			t.Fatalf("s[%d] = %d after ResetStats, want %d", i, got, i)
		}
	}
	snap := h.Snapshot()
	if snap.Counters.RemoteFetches == 0 {
		t.Fatalf("no remote fetch after ResetStats: the check below is vacuous")
	}
	if got := snap.Counters.DeadlineMisses; got != 0 {
		t.Fatalf("DeadlineMisses = %d after ResetStats, want 0", got)
	}
	if h.rt.Pool().Far().Degraded() {
		t.Fatalf("the deadline-miss breaker tripped after ResetStats")
	}
}

// TestHeapMetricsCoverWhatTheHeapBuilt: Heap.Metrics is the heap's one
// registry, so it carries the series of the pool and of the transport the
// heap dialed, not only the runtime counters.
func TestHeapMetricsCoverWhatTheHeapBuilt(t *testing.T) {
	srv, addr := loopbackServer(t, remote.NewStore())
	defer srv.Close()
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 32 << 10, ObjectBytes: 1 << 10,
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const n = 16 << 10
	s, _ := NewUint64s(h, n)
	s.Fill(3)
	h.rt.EvacuateAll()
	var sum uint64
	s.Range(func(_ int, v uint64) bool { sum += v; return true })
	if sum != 3*n {
		t.Fatalf("Range sum %d, want %d", sum, 3*n)
	}

	m := h.Snapshot().Metrics
	if got := m.Counter("trackfm_transport_pipelined_fetches_total"); got == 0 {
		t.Errorf("trackfm_transport_pipelined_fetches_total = 0 after a Range over a far slice on loopback")
	}
	if got, ok := m.Gauges["trackfm_pool_resident_slots"]; !ok || got == 0 {
		t.Errorf("trackfm_pool_resident_slots = %v (registered: %v), want the pool's residency", got, ok)
	}
	if _, ok := m.Counters["trackfm_fabric_retries_total"]; !ok {
		t.Errorf("trackfm_fabric_retries_total is not on the heap's registry")
	}
	if _, ok := m.Gauges["trackfm_retry_budget_tokens"]; !ok {
		t.Errorf("trackfm_retry_budget_tokens is not on the heap's registry")
	}
}

// TestPoolPrefetchDepthReachesRange: there is one prefetch depth, the
// pool's, and a chunked stream reads it at every crossing — so the
// anti-thrash governor's Throttle(true), which reads the depth as 0,
// quiets a Range, and lifting the throttle restores its prefetches.
func TestPoolPrefetchDepthReachesRange(t *testing.T) {
	h, s := scanHeap(t, 4096)
	issued := func() uint64 {
		h.rt.EvacuateAll()
		h.ResetStats()
		s.Range(func(int, uint64) bool { return true })
		return h.Snapshot().Counters.PrefetchIssued
	}
	if got := issued(); got == 0 {
		t.Fatalf("a Range over a far slice issued no prefetch; the test exercises nothing")
	}
	h.rt.Pool().Throttle(true)
	if got := issued(); got != 0 {
		t.Errorf("Range issued %d prefetches on a throttled pool", got)
	}
	h.rt.Pool().Throttle(false)
	if got := issued(); got == 0 {
		t.Errorf("Range issued no prefetch after the throttle lifted")
	}
}
