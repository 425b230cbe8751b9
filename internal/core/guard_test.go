package core

import "testing"

// TestGuardChargesOnce: a fast-path scalar guard charges its Table 1
// constant plus the one load/store it guards, warm and cold, and a
// slow-path guard's latency observation is the guard and the localize
// under it, never the data access after it.
func TestGuardChargesOnce(t *testing.T) {
	rt := newTestRuntime(t, 64, 1<<16, 1<<12)
	env := rt.Env()
	costs := &env.Costs
	charged := func(access func()) uint64 {
		before := env.Clock.Cycles()
		access()
		return env.Clock.Cycles() - before
	}
	slowObserved := func(access func()) (total, observed uint64) {
		before := rt.lat.GuardSlow.Snapshot()
		total = charged(access)
		d := rt.lat.GuardSlow.Snapshot().Delta(before)
		if d.Count() != 1 {
			t.Fatalf("%d slow-guard observations, want 1", d.Count())
		}
		return total, d.Sum
	}

	p := rt.MustMalloc(64)
	// First touch: a slow guard on a cold OST line that materializes the
	// object, which costs nothing more.
	total, observed := slowObserved(func() { rt.StoreU64(p, 1) })
	if observed != costs.SlowGuardWriteUncached || total != observed+costs.LocalLoadStore {
		t.Errorf("first-touch store: charged %d, observed %d; want observed %d and the store's %d after it",
			total, observed, costs.SlowGuardWriteUncached, costs.LocalLoadStore)
	}

	for _, c := range []struct {
		name  string
		write bool
		cold  bool
		guard uint64
	}{
		{"load warm", false, false, costs.FastGuardReadCached},
		{"load cold", false, true, costs.FastGuardReadUncached},
		{"store warm", true, false, costs.FastGuardWriteCached},
		{"store cold", true, true, costs.FastGuardWriteUncached},
	} {
		if c.cold {
			rt.FlushOSTCache()
		}
		fast := env.Counters.FastPathGuards
		got := charged(func() {
			if c.write {
				rt.StoreU64(p, 2)
			} else {
				rt.LoadU64(p)
			}
		})
		if env.Counters.FastPathGuards != fast+1 {
			t.Fatalf("%s: took the slow path", c.name)
		}
		if want := c.guard + costs.LocalLoadStore; got != want {
			t.Errorf("%s: charged %d cycles, want %d (guard %d + access %d)", c.name, got, want, c.guard, costs.LocalLoadStore)
		}
	}

	// After eviction: a slow guard that fetches the object back, 144
	// cycles of guard and 31849 of simulated fetch.
	rt.EvacuateAll()
	total, observed = slowObserved(func() {
		if got := rt.LoadU64(p); got != 2 {
			t.Fatalf("reloaded %d, want 2", got)
		}
	})
	if observed != 31993 || total != observed+costs.LocalLoadStore {
		t.Errorf("fetching load: charged %d, observed %d; want observed 31993 and the load's %d after it",
			total, observed, costs.LocalLoadStore)
	}
}
