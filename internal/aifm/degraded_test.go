package aifm

import (
	"errors"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// slowLink is an ErrorTransport whose operations burn a configurable number
// of simulated cycles when enabled, for driving the pool's per-op deadline
// past its budget deterministically. The stall happens inside the canonical
// Until forms (before delegating to the embedded SimLink) so the deadline
// check sees the burned cycles: a stalled op surfaces ErrDeadlineExceeded.
type slowLink struct {
	*fabric.SimLink
	env   *sim.Env
	delay uint64 // extra cycles per op; 0 = healthy
}

func (s *slowLink) stall() {
	if s.delay > 0 {
		s.env.Clock.Advance(s.delay)
	}
}

func (s *slowLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	s.stall()
	return s.SimLink.TryFetchUntil(key, dst, dl)
}

func (s *slowLink) TryFetchAsync(key uint64, dst []byte) (bool, error) {
	return s.TryFetchUntil(key, dst, fabric.Deadline{})
}

func (s *slowLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	s.stall()
	return s.SimLink.TryPushUntil(key, src, dl)
}

// degradedPool builds a pool with a 2-slot local budget, a per-op deadline,
// and a degrade threshold of 4 misses over the given slow link.
func degradedPool(t *testing.T, link *slowLink, env *sim.Env, budget uint64) *Pool {
	t.Helper()
	p, err := NewPool(Config{
		Env: env,
		RemoteConfig: fabric.RemoteConfig{
			Transport:     link,
			RemoteRetries: 3,
			OpDeadline:    budget,
		},
		ObjectSize:   64,
		HeapSize:     64 * 16,
		LocalBudget:  64 * 2,
		DegradeAfter: 4,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestPoolDegradesAfterDeadlineMissStreak(t *testing.T) {
	env := sim.NewEnv()
	budget := 4 * env.Costs.RemoteObjectFetch(64)
	link := &slowLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP), env: env}
	p := degradedPool(t, link, env, budget)
	evacuate(t, p, 3, 0x5A)

	// A healthy fetch inside the budget neither misses nor degrades.
	if _, _, err := p.TryLocalize(3, false); err != nil {
		t.Fatalf("healthy TryLocalize: %v", err)
	}
	evacuate(t, p, 3, 0x5A)

	// Slow the fabric past the budget: each localize burns its full
	// deadline, discards the late result, and extends the miss streak.
	link.delay = 2 * budget
	for i := 0; i < 4; i++ {
		if p.Degraded() {
			t.Fatalf("pool degraded after only %d misses, threshold is 4", i)
		}
		_, _, err := p.TryLocalize(3, false)
		if !errors.Is(err, fabric.ErrDeadlineExceeded) {
			t.Fatalf("miss %d: TryLocalize = %v, want ErrDeadlineExceeded", i, err)
		}
	}
	if !p.Degraded() {
		t.Fatalf("pool not degraded after 4 consecutive deadline misses")
	}
	if got := env.Counters.DeadlineMisses; got < 4 {
		t.Fatalf("DeadlineMisses = %d, want >= 4", got)
	}
	if got := env.Counters.DegradedEntries; got != 1 {
		t.Fatalf("DegradedEntries = %d, want 1", got)
	}
	// The late results were discarded: the object is still remote, not a
	// ghost assembled from a fetch that outlived its deadline.
	if p.Meta(3).Present() {
		t.Fatalf("deadline-missing localize left the object resident")
	}

	// Degraded mode fails fast: most fetches are refused with ErrDegraded
	// before touching the fabric (the probe trickle is 1 in 16).
	sawDegraded := 0
	for i := 0; i < 8; i++ {
		if _, _, err := p.TryLocalize(3, false); errors.Is(err, ErrDegraded) {
			sawDegraded++
		}
	}
	if sawDegraded == 0 {
		t.Fatalf("no ErrDegraded fail-fast while degraded")
	}

	// Heal the fabric: within one probe window a trickle fetch succeeds
	// and degradation lifts.
	link.delay = 0
	recovered := false
	for i := 0; i < 2*16; i++ {
		if _, _, err := p.TryLocalize(3, false); err == nil {
			recovered = true
			break
		}
	}
	if !recovered || p.Degraded() {
		t.Fatalf("pool did not recover after fabric healed (recovered=%v degraded=%v)", recovered, p.Degraded())
	}
	var got [1]byte
	p.Read(3, 0, got[:])
	if got[0] != 0x5A {
		t.Fatalf("read %#x after recovery, want 0x5A", got[0])
	}
}

func TestDegradedPoolStallsDirtyEvictionAndPrefetch(t *testing.T) {
	env := sim.NewEnv()
	budget := 4 * env.Costs.RemoteObjectFetch(64)
	link := &slowLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP), env: env}
	p := degradedPool(t, link, env, budget)
	evacuate(t, p, 3, 0x11)

	// A dirty resident object whose only copy is local.
	p.Localize(0, true)
	p.Write(0, 0, []byte{0x22})

	// Drive the pool into degraded mode via deadline-missing fetches.
	link.delay = 2 * budget
	for i := 0; i < 4; i++ {
		if _, _, err := p.TryLocalize(3, false); !errors.Is(err, fabric.ErrDeadlineExceeded) {
			t.Fatalf("miss %d: %v", i, err)
		}
	}
	if !p.Degraded() {
		t.Fatalf("pool not degraded")
	}

	// Dirty write-back would also miss its deadline, so eviction stalls:
	// the only copy of the dirty data stays resident.
	stallsBefore := env.Counters.EvictionStalls
	p.EvacuateAll()
	if env.Counters.EvictionStalls == stallsBefore {
		t.Fatalf("no eviction stall recorded for dirty object in degraded mode")
	}
	if !p.Meta(0).Present() {
		t.Fatalf("dirty object evicted while the pool was degraded")
	}

	// Prefetch is paused outright: no probe slot is burned on speculation.
	p.Prefetch(3)
	if p.Meta(3).Present() {
		t.Fatalf("prefetch localized an object while degraded")
	}

	// Heal, recover via the probe trickle, and the stalled eviction drains.
	link.delay = 0
	for i := 0; i < 2*16 && p.Degraded(); i++ {
		p.TryLocalize(3, false)
	}
	if p.Degraded() {
		t.Fatalf("pool still degraded after heal")
	}
	p.EvacuateAll()
	if p.Meta(0).Present() {
		t.Fatalf("EvacuateAll after recovery left the dirty object resident")
	}
	if _, _, err := p.TryLocalize(0, false); err != nil {
		t.Fatalf("TryLocalize after recovery: %v", err)
	}
	var got [1]byte
	p.Read(0, 0, got[:])
	if got[0] != 0x22 {
		t.Fatalf("read %#x after stall-then-heal, want 0x22", got[0])
	}
}

func TestPoolDegradedObsGauges(t *testing.T) {
	env := sim.NewEnv()
	budget := 4 * env.Costs.RemoteObjectFetch(64)
	link := &slowLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP), env: env}
	p := degradedPool(t, link, env, budget)
	reg := obs.NewRegistry()
	p.RegisterObs(reg)
	evacuate(t, p, 1, 0x33)

	gauge := func(name string) float64 {
		t.Helper()
		v, ok := reg.Snapshot().Gauges[name]
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}

	if got := gauge("trackfm_pool_degraded"); got != 0 {
		t.Fatalf("trackfm_pool_degraded = %v on a healthy pool", got)
	}
	link.delay = 2 * budget
	for i := 0; i < 4; i++ {
		p.TryLocalize(1, false)
	}
	if got := gauge("trackfm_pool_degraded"); got != 1 {
		t.Fatalf("trackfm_pool_degraded = %v while degraded, want 1", got)
	}
	if got := gauge("trackfm_pool_deadline_miss_streak"); got < 4 {
		t.Fatalf("trackfm_pool_deadline_miss_streak = %v, want >= 4", got)
	}
}
