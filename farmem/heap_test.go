package farmem

import (
	"sync/atomic"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// gateLink is a replica's link that can be taken down and brought back.
type gateLink struct {
	*fabric.SimLink // storage; charges a private env
	down            atomic.Bool
}

func newGateLink() *gateLink {
	return &gateLink{SimLink: fabric.NewSimLink(sim.NewEnv(), fabric.BackendTCP)}
}

func (g *gateLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if g.down.Load() {
		return false, fabric.ErrRemoteUnavailable
	}
	return g.SimLink.TryFetchUntil(key, dst, dl)
}

func (g *gateLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if g.down.Load() {
		return fabric.ErrRemoteUnavailable
	}
	return g.SimLink.TryPushUntil(key, src, dl)
}

func (g *gateLink) TryDeleteUntil(key uint64, dl fabric.Deadline) error {
	if g.down.Load() {
		return fabric.ErrRemoteUnavailable
	}
	return g.SimLink.TryDeleteUntil(key, dl)
}

// TestResetStatsKeepsBreakerTime: a replica's breaker keeps time by the
// heap's clock — an open one carries an absolute retry deadline — so
// ResetStats must not rewind it. A replica quarantined before the reset and
// healed after it is probed and rejoins within a few OpenTimeouts, however
// long the program had already run.
func TestResetStatsKeepsBreakerTime(t *testing.T) {
	const openTimeout = 1_000_000
	a, b := newGateLink(), newGateLink()
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 14, ObjectBytes: 256,
		RemoteConfig: fabric.RemoteConfig{
			Replicas:    []fabric.ErrorTransport{a, b},
			Replication: fabric.ReplicaConfig{OpenTimeout: openTimeout},
		}})
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
	state := func() fabric.BreakerState { return h.rt.Pool().Far().ReplicaSet().Health()[1].State }

	// Every 32nd element is another object: each access misses, evicts a
	// dirty object (a push to both replicas) and fetches.
	next := 0
	touch := func() {
		s.Set(next, uint64(next))
		next = (next + 32) % n
	}
	b.down.Store(true)
	for i := 0; i < 1000 && state() != fabric.BreakerOpen; i++ {
		touch()
	}
	if state() != fabric.BreakerOpen {
		t.Fatalf("replica 1's breaker is %v after its link went down, want open", state())
	}

	h.ResetStats()
	if secs := h.Stats().SimulatedSeconds; secs != 0 {
		t.Errorf("SimulatedSeconds = %v right after ResetStats, want 0", secs)
	}
	b.down.Store(false)
	for round := 0; round < 8 && state() != fabric.BreakerClosed; round++ {
		h.env.Clock.Advance(openTimeout)
		touch() // every replica-set operation first moves the health state machine on
	}
	if state() != fabric.BreakerClosed {
		t.Fatalf("replica 1 is still %v eight OpenTimeouts after its link healed: its retry deadline is a reading of a clock ResetStats rewound", state())
	}
	for i := 0; i < n; i += 32 {
		if got := s.At(i); got != uint64(i) {
			t.Fatalf("s[%d] = %d after the outage, want %d", i, got, i)
		}
	}
}

// TestHeapMetricsCoverWhatTheHeapBuilt: Heap.Metrics is the heap's one
// registry, so it carries the series of the pool and of the transport the
// heap dialed, not only the runtime counters.
func TestHeapMetricsCoverWhatTheHeapBuilt(t *testing.T) {
	srv, addr := loopbackServer(t, remote.NewStore(), "127.0.0.1:0")
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
