package far

import (
	"bytes"
	"errors"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// scriptLink is a SimLink whose operations fail or stall on command.
type scriptLink struct {
	*fabric.SimLink
	env       *sim.Env
	failFetch int    // fail this many fetch attempts with err, then succeed
	failPush  int    // likewise for push attempts
	err       error  // what a scripted failure returns
	delay     uint64 // cycles burned before each op's deadline check
	ops       int    // attempts that reached the link
}

func (l *scriptLink) gate(fail *int) error {
	l.ops++
	l.env.Clock.Advance(l.delay)
	if *fail > 0 {
		*fail--
		return l.err
	}
	return nil
}

func (l *scriptLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if err := l.gate(&l.failFetch); err != nil {
		return false, err
	}
	return l.SimLink.TryFetchUntil(key, dst, dl)
}

func (l *scriptLink) StartFetch(key uint64, dst []byte) (fabric.Ticket, error) {
	found, err := l.TryFetchUntil(key, dst, fabric.Deadline{})
	return fabric.CompleteTicket(found), err
}

func (l *scriptLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if err := l.gate(&l.failPush); err != nil {
		return err
	}
	return l.SimLink.TryPushUntil(key, src, dl)
}

const (
	unit    = 64
	retries = 3
	forever = 1 << 30
)

// rig is one engine over a scripted link, with a unit of recognizable data
// already far under key 7.
type rig struct {
	*testing.T
	e    *Engine
	l    *scriptLink
	c    *sim.Counters
	data []byte
}

func (r *rig) fetch(key uint64, speculative bool) (bool, error) {
	dst := make([]byte, unit)
	fetch := r.e.Fetch
	if speculative {
		fetch = func(key uint64, dst []byte) (bool, error) {
			pf, err := r.e.StartPrefetch(key, dst)
			if err != nil {
				return false, err
			}
			return r.e.FinishPrefetch(pf)
		}
	}
	fromTier, err := fetch(key, dst)
	if err == nil && key == 7 && !bytes.Equal(dst, r.data) {
		r.Fatalf("fetched bytes differ from what was evicted")
	}
	return fromTier, err
}

func (r *rig) mustFail(key uint64, want error) {
	r.Helper()
	if _, err := r.fetch(key, false); !errors.Is(err, want) {
		r.Fatalf("Fetch = %v, want %v", err, want)
	}
}

func (r *rig) want(name string, got, want uint64) {
	r.Helper()
	if got != want {
		r.Fatalf("%s = %d, want %d", name, got, want)
	}
}

func TestEngine(t *testing.T) {
	budget := 4 * sim.NewEnv().Costs.RemoteObjectFetch(unit)
	deadline := func(c *Config) { c.OpDeadline, c.DegradeAfter = budget, 4 }
	tier := func(c *Config) { c.CompressedBudget = 1 << 16 }
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		run  func(r *rig)
	}{
		{"transient faults are retried inside the budget", nil, func(r *rig) {
			r.l.failFetch = retries - 1
			if _, err := r.fetch(7, false); err != nil {
				r.Fatalf("Fetch: %v", err)
			}
			r.l.failFetch = 1
			if _, err := r.fetch(7, true); err != nil {
				r.Fatalf("speculative Fetch: %v", err)
			}
			r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, retries)
		}},
		{"an exhausted budget surfaces the typed error", nil, func(r *rig) {
			r.l.failFetch, r.l.ops = forever, 0
			r.mustFail(7, fabric.ErrRemoteUnavailable)
			r.want("attempts", uint64(r.l.ops), retries)
			r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, retries)
			r.l.failFetch = 0
			if _, err := r.fetch(7, false); err != nil {
				r.Fatalf("Fetch after heal: %v", err)
			}
		}},
		{"the deadline bounds the whole retry loop", deadline, func(r *rig) {
			r.l.delay, r.l.ops = 2*budget, 0
			r.mustFail(7, fabric.ErrDeadlineExceeded)
			if r.e.Evict(7, r.data, true) {
				r.Fatalf("dirty Evict past its deadline reported success")
			}
			r.want("attempts", uint64(r.l.ops), 2) // one each, not retries each
			r.want("DeadlineMisses", r.c.DeadlineMisses, 2)
			r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, 1)
			r.want("RemotePushFaults", r.c.RemotePushFaults, 1)
			r.want("EvictionStalls", r.c.EvictionStalls, 1)
			if _, err := r.fetch(7, true); err != nil {
				r.Fatalf("speculative Fetch carries no deadline, got %v", err)
			}
		}},
		{"overload rejects are tallied and never trip the breaker", deadline, func(r *rig) {
			r.l.err, r.l.failFetch = fabric.ErrOverloaded, forever
			for i := 0; i < 5; i++ {
				r.mustFail(7, fabric.ErrOverloaded)
			}
			r.want("OverloadRejects", r.c.OverloadRejects, 5*retries)
			r.want("DeadlineMisses", r.c.DeadlineMisses, 0)
			// Re-issued token-free, and a shed attempt earns nothing.
			if b := r.e.budget.Balance(); b != 16 || r.e.budget.Exhausted() != 0 {
				r.Fatalf("retry budget at %v with %d denials after overload rejects, want 16 and 0", b, r.e.budget.Exhausted())
			}
			if r.e.Degraded() {
				r.Fatalf("overload rejects degraded the engine")
			}
		}},
		{"a miss streak trips the breaker, a probe heals it", deadline, func(r *rig) {
			reg := obs.NewRegistry()
			r.e.RegisterObs(reg)
			r.l.delay = 2 * budget
			for i := 0; i < 4; i++ {
				if r.e.Degraded() {
					r.Fatalf("degraded after only %d misses, threshold is 4", i)
				}
				r.mustFail(7, fabric.ErrDeadlineExceeded)
			}
			g := reg.Snapshot().Gauges
			if !r.e.Degraded() || g["trackfm_pool_degraded"] != 1 || g["trackfm_pool_deadline_miss_streak"] < 4 {
				r.Fatalf("not degraded after 4 consecutive misses (gauges %v)", g)
			}
			r.want("DegradedEntries", r.c.DegradedEntries, 1)
			// Fail fast: of 16 fetches exactly one (the probe) reaches the link.
			r.l.ops = 0
			refused := 0
			for i := 0; i < degradedProbeEvery; i++ {
				if _, err := r.fetch(7, false); errors.Is(err, ErrDegraded) {
					refused++
				}
			}
			r.want("ErrDegraded refusals", uint64(refused), degradedProbeEvery-1)
			r.want("probes on the link", uint64(r.l.ops), 1)
			// Heal the link: the next probe succeeds and lifts the degradation.
			r.l.delay = 0
			for i := 0; i < degradedProbeEvery && r.e.Degraded(); i++ {
				r.fetch(7, false)
			}
			if r.e.Degraded() || reg.Snapshot().Gauges["trackfm_pool_degraded"] != 0 {
				r.Fatalf("still degraded a full probe window after the link healed")
			}
		}},
		{"a dirty write-back probes the breaker, never a forced degradation", deadline, func(r *rig) {
			r.l.delay = 2 * budget
			for i := 0; i < 4; i++ {
				r.mustFail(7, fabric.ErrDeadlineExceeded)
			}
			// Heal the link: of the stalled write-backs, the probe goes
			// through and lifts the degradation.
			r.l.delay, r.l.ops = 0, 0
			for i := 0; i < degradedProbeEvery && r.e.Degraded(); i++ {
				r.e.Evict(7, r.data, true)
			}
			if r.e.Degraded() {
				r.Fatalf("still degraded a full probe window of write-backs after the link healed")
			}
			r.want("pushes on the link", uint64(r.l.ops), 1)
			r.e.ForceDegrade(true)
			for i := 0; i < 2*degradedProbeEvery; i++ {
				if r.e.Evict(7, r.data, true) {
					r.Fatalf("a dirty Evict went through a forced degradation")
				}
			}
			r.want("pushes on the link", uint64(r.l.ops), 1)
		}},
		{"a forced degradation outlives successful probes", deadline, func(r *rig) {
			r.e.ForceDegrade(true)
			r.e.ForceDegrade(true)
			r.want("DegradedEntries", r.c.DegradedEntries, 1)
			r.l.ops = 0
			for i := 0; i < 2*degradedProbeEvery; i++ {
				r.fetch(7, false)
			}
			r.want("probes on the link", uint64(r.l.ops), 2)
			if !r.e.Degraded() {
				r.Fatalf("a successful probe lifted a forced degradation")
			}
			if r.e.Evict(7, r.data, true) || r.l.ops != 2 {
				r.Fatalf("dirty Evict went to the link while degraded")
			}
			if !r.e.Evict(7, r.data, false) {
				r.Fatalf("clean Evict refused while degraded")
			}
			r.e.ForceDegrade(false)
			if r.e.Degraded() {
				r.Fatalf("ForceDegrade(false) left the engine degraded")
			}
		}},
		{"a tier hit touches no fabric, even while degraded", tier, func(r *rig) {
			r.want("TierDemotes", r.c.TierDemotes, 1) // the rig's own eviction
			r.e.ForceDegrade(true)
			r.l.ops = 0
			if fromTier, err := r.fetch(7, false); err != nil || !fromTier {
				r.Fatalf("Fetch = tier %v, %v; want a tier hit", fromTier, err)
			}
			r.want("link ops", uint64(r.l.ops), 0)
			r.want("TierHits", r.c.TierHits, 1)
			r.mustFail(8, ErrDegraded) // a tier miss still fails fast
			r.want("TierMisses", r.c.TierMisses, 1)
		}},
		{"a speculative tier hit is complete at start, with no link op", tier, func(r *rig) {
			r.l.ops = 0
			pf, err := r.e.StartPrefetch(7, make([]byte, unit))
			if err != nil || pf.Pending() {
				r.Fatalf("StartPrefetch = pending %v, %v; want done", pf.Pending(), err)
			}
			if fromTier, err := r.e.FinishPrefetch(pf); err != nil || !fromTier {
				r.Fatalf("FinishPrefetch = tier %v, %v; want a tier hit", fromTier, err)
			}
			r.want("link ops", uint64(r.l.ops), 0)
			r.want("TierHits", r.c.TierHits, 1)
		}},
		{"a degraded engine refuses a speculative fetch before the link", deadline, func(r *rig) {
			r.e.ForceDegrade(true)
			r.l.ops = 0
			for i := 1; i < degradedProbeEvery; i++ {
				if _, err := r.e.StartPrefetch(7, make([]byte, unit)); !errors.Is(err, ErrDegraded) {
					r.Fatalf("StartPrefetch while degraded = %v, want ErrDegraded", err)
				}
			}
			r.want("link ops", uint64(r.l.ops), 0)
			r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, 0)
		}},
		{"a start the link refuses is retried to the budget", nil, func(r *rig) {
			r.l.failFetch, r.l.ops = forever, 0
			if _, err := r.e.StartPrefetch(7, make([]byte, unit)); !errors.Is(err, fabric.ErrRemoteUnavailable) {
				r.Fatalf("StartPrefetch over a dead link = %v, want ErrRemoteUnavailable", err)
			}
			r.want("attempts", uint64(r.l.ops), retries)
			r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, retries)
		}},
		{"a failed push demotes nothing", tier, func(r *rig) {
			r.l.failPush = forever
			if r.e.Evict(9, r.data, true) {
				r.Fatalf("dirty Evict with a dead push path reported success")
			}
			r.want("RemotePushFaults", r.c.RemotePushFaults, retries)
			r.want("EvictionStalls", r.c.EvictionStalls, 1)
			if r.e.Tier().Contains(9) {
				r.Fatalf("tier holds a unit whose only other copy is local")
			}
			r.l.failPush = 0
			if !r.e.Evict(9, r.data, true) || !r.e.Tier().Contains(9) {
				r.Fatalf("Evict after heal did not push and demote")
			}
			r.e.Delete(9)
			if r.e.Tier().Contains(9) {
				r.Fatalf("Delete left the unit revivable from the tier")
			}
		}},
		{"zero RemoteConfig, zero budget: the default SimLink and no tier traffic", func(c *Config) { c.Transport = nil }, func(r *rig) {
			if _, err := r.fetch(7, false); err != nil {
				r.Fatalf("Fetch over the default SimLink: %v", err)
			}
			if r.e.Tier() != nil || r.c.TierHits+r.c.TierMisses+r.c.TierDemotes != 0 {
				r.Fatalf("a zero CompressedBudget built a tier or recorded tier traffic")
			}
			pushed := r.c.BytesEvicted
			if !r.e.Evict(7, r.data, false) || r.c.BytesEvicted != pushed {
				r.Fatalf("clean Evict without a tier moved bytes")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			l := &scriptLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP), env: env, err: fabric.ErrRemoteUnavailable}
			cfg := Config{
				Env:          env,
				RemoteConfig: fabric.RemoteConfig{Transport: l, RemoteRetries: retries},
				Backend:      fabric.BackendTCP,
				UnitSize:     unit,
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer e.Close()
			r := &rig{T: t, e: e, l: l, c: &env.Counters, data: bytes.Repeat([]byte{0x5A, 7}, unit/2)}
			if !e.Evict(7, r.data, true) {
				t.Fatalf("seeding Evict failed")
			}
			tc.run(r)
		})
	}
}

// refusingStore answers every Get with a checksum failure, which the
// server turns into a one-byte refusal: a fetch that starts fine and fails
// when its reply is read.
type refusingStore struct{ *remote.Store }

func (refusingStore) Get(uint64, []byte) (bool, error) { return false, remote.ErrChecksum }

// TestPrefetchFailingAtFinish: over a transport with a real async path a
// started prefetch is pending, and one whose reply is a refusal fails at
// FinishPrefetch — one fetch fault, no second request on the wire (recovery is
// the demand path's), and every buffer lease the transport took home.
func TestPrefetchFailingAtFinish(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	srv := fabric.NewServer(refusingStore{remote.NewStore()})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()
	tr, err := fabric.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	env := sim.NewEnv()
	e, err := New(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: tr, RemoteRetries: retries},
		Backend: fabric.BackendTCP, UnitSize: unit})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	start := bufpool.Outstanding()
	pf, err := e.StartPrefetch(7, make([]byte, unit))
	if err != nil || !pf.Pending() {
		t.Fatalf("StartPrefetch = pending %v, %v; want a pending prefetch", pf.Pending(), err)
	}
	if _, err := e.FinishPrefetch(pf); !errors.Is(err, fabric.ErrIntegrity) {
		t.Fatalf("FinishPrefetch = %v, want the refusal's ErrIntegrity", err)
	}
	if got := env.Counters.RemoteFetchFaults; got != 1 {
		t.Errorf("RemoteFetchFaults = %d, want 1", got)
	}
	if got := srv.Stats().Frames(); got != 2 { // the hello and the one fetch
		t.Errorf("server served %d frames, want 2: a failed ticket is not retried", got)
	}
	if got := bufpool.Outstanding() - start; got != 0 {
		t.Errorf("%d leases still out after FinishPrefetch", got)
	}
}

// TestPermanentErrorsEndTheRetryLoop: an error the transport marks
// permanent (fabric.Permanent) is not tried again by the engine either. A
// blob the node reports corrupt at rest is one fetch frame on the wire and
// one fetch fault, not one per attempt of the retry budget; over a closed
// transport a fetch, a push, a flush of the write-behind window and a
// delete each fail once.
func TestPermanentErrorsEndTheRetryLoop(t *testing.T) {
	srv := fabric.NewServer(refusingStore{remote.NewStore()})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()
	tr, err := fabric.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	env := sim.NewEnv()
	e, err := New(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: tr, RemoteRetries: retries},
		Backend: fabric.BackendTCP, UnitSize: unit})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	buf := make([]byte, unit)

	if _, err := e.Fetch(7, buf); !errors.Is(err, fabric.ErrIntegrity) || !fabric.Permanent(err) {
		t.Fatalf("Fetch of a corrupt blob = %v, want a permanent ErrIntegrity", err)
	}
	if got := srv.Stats().Frames(); got != 2 { // the hello and the one fetch
		t.Errorf("server served %d frames, want 2: the corrupt blob's fetch is sent once", got)
	}
	if got := env.Counters.RemoteFetchFaults; got != 1 {
		t.Errorf("RemoteFetchFaults = %d after the corrupt blob, want 1", got)
	}

	tr.Close()
	if _, err := e.Fetch(8, buf); !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("Fetch over a closed transport = %v, want ErrClosed", err)
	}
	if got := env.Counters.RemoteFetchFaults; got != 2 {
		t.Errorf("RemoteFetchFaults = %d after a fetch over a closed transport, want 2", got)
	}
	if err := e.push(9, buf); !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("push over a closed transport = %v, want ErrClosed", err)
	}
	if got := env.Counters.RemotePushFaults; got != 1 {
		t.Errorf("RemotePushFaults = %d after a push over a closed transport, want 1", got)
	}
	if !e.Evict(10, buf, true) {
		t.Fatalf("a dirty eviction was not parked in the write-behind window")
	}
	if err := e.Flush(); !errors.Is(err, fabric.ErrClosed) {
		t.Fatalf("Flush over a closed transport = %v, want ErrClosed", err)
	}
	if got := env.Counters.RemotePushFaults; got != 2 {
		t.Errorf("RemotePushFaults = %d after a flush of one parked unit, want 2", got)
	}
	e.Delete(11)
	if got := env.Counters.RemotePushFaults; got != 3 {
		t.Errorf("RemotePushFaults = %d after a delete over a closed transport, want 3", got)
	}
}

// crashedStore takes no writes and serves every read, as a durable node
// does once a crash point has fired or its log has failed: the server
// answers every push with a one-byte refusal.
type crashedStore struct{ *remote.Store }

func (crashedStore) Put(uint64, []byte) error { return remote.ErrCrashed }

// TestCarriedRefusalServesTheFetch: over a node that takes no writes, a
// fetch of a clean key that carries a parked push is served from the node,
// every time. The refused push stays parked and forwardable, one push
// fault per exchange that carried it, and no fetch fault is counted: the
// fetch's own reply decides the fetch.
func TestCarriedRefusalServesTheFetch(t *testing.T) {
	store := remote.NewStore()
	store.Put(1, bytes.Repeat([]byte{0x5a}, unit))
	srv := fabric.NewServer(crashedStore{store})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()
	tr, err := fabric.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	env := sim.NewEnv()
	e, err := New(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: tr, RemoteRetries: retries},
		Backend: fabric.BackendTCP, UnitSize: unit})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	dirty := bytes.Repeat([]byte{0xd1}, unit)
	if !e.Evict(2, dirty, true) {
		t.Fatalf("a dirty eviction was not parked in the write-behind window")
	}
	for i := range 3 {
		buf := make([]byte, unit)
		if local, err := e.Fetch(1, buf); err != nil || local || buf[0] != 0x5a {
			t.Fatalf("fetch %d of a clean key behind a refused push = local %v, %#x…, %v; want the node's 0x5a", i, local, buf[0], err)
		}
	}
	if c := env.Counters; c.RemoteFetchFaults != 0 || c.RemotePushFaults != 3 {
		t.Errorf("RemoteFetchFaults = %d, RemotePushFaults = %d; want 0, 3: one refused push per exchange", c.RemoteFetchFaults, c.RemotePushFaults)
	}
	buf := make([]byte, unit)
	if local, err := e.Fetch(2, buf); err != nil || !local || !bytes.Equal(buf, dirty) || e.wb.parked() != 1 {
		t.Errorf("fetch of the refused key = local %v, %v, parked %d; want its parked copy", local, err, e.wb.parked())
	}
}
