package far_test

import (
	"testing"

	"trackfm/internal/aifm"
	"trackfm/internal/fabric"
	"trackfm/internal/fastswap"
	"trackfm/internal/sim"
)

// overloadEvery sheds every nth operation before it reaches the link, the
// one fault class FaultLink does not inject.
type overloadEvery struct {
	fabric.ErrorTransport
	n, ops int
}

func (o *overloadEvery) shed() error {
	if o.ops++; o.ops%o.n == 0 {
		return fabric.ErrOverloaded
	}
	return nil
}

func (o *overloadEvery) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if err := o.shed(); err != nil {
		return false, err
	}
	return o.ErrorTransport.TryFetchUntil(key, dst, dl)
}

func (o *overloadEvery) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if err := o.shed(); err != nil {
		return err
	}
	return o.ErrorTransport.TryPushUntil(key, src, dl)
}

// TestFaultAccountingParity runs one seeded fault schedule — drops, delays
// past the deadline, overload sheds — under an object pool and a swap of
// equal unit size and unit count, driven by the same dirtying sweep. Both
// turn every access into "write back a victim, fetch the unit", so the
// link sees the same operation sequence and the far engine must account
// for it identically, whichever residency policy sits on top.
func TestFaultAccountingParity(t *testing.T) {
	const unit, units, slots, sweeps = 4096, 48, 8, 12 // the swap's page size, which is not a choice
	for _, seed := range []uint64{1, 2, 3} {
		run := func(build func(*sim.Env, fabric.RemoteConfig) func(u uint64)) sim.Counters {
			env := sim.NewEnv()
			budget := 4 * env.Costs.RemoteObjectFetch(unit)
			link := &overloadEvery{n: 11, ErrorTransport: fabric.NewFaultLink(
				fabric.NewSimLink(env, fabric.BackendTCP),
				fabric.FaultConfig{Seed: seed, DropRate: 0.15, DelayRate: 0.05, DelayCycles: 2 * budget, Env: env})}
			touch := build(env, fabric.RemoteConfig{Transport: link, RemoteRetries: 8, OpDeadline: budget})
			for i := uint64(0); i < sweeps*units; i++ {
				// A fetch that missed its deadline fails the access (an error
				// from the pool, the SIGBUS panic from the swap): re-issue it.
				ok := false
				for try := 0; !ok; try++ {
					if try == 100 {
						t.Fatalf("seed %d: access %d never succeeded", seed, i)
					}
					func() {
						defer func() { ok = recover() == nil }()
						touch(i % units)
					}()
				}
			}
			return env.Counters.Snapshot()
		}
		pool := run(func(env *sim.Env, rc fabric.RemoteConfig) func(uint64) {
			p, err := aifm.NewPool(aifm.Config{Env: env, RemoteConfig: rc, ObjectSize: unit,
				HeapSize: units * unit, LocalBudget: slots * unit})
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			return func(u uint64) {
				if err := p.Access(aifm.ObjectID(u), 0, nil, true); err != nil {
					panic(err)
				}
			}
		})
		swap := run(func(env *sim.Env, rc fabric.RemoteConfig) func(uint64) {
			s, err := fastswap.New(fastswap.Config{Env: env, RemoteConfig: rc,
				HeapSize: units * unit, LocalBudget: slots * unit})
			if err != nil {
				t.Fatalf("fastswap.New: %v", err)
			}
			return func(u uint64) { s.StoreU64(u*unit, u) }
		})
		for _, c := range []struct {
			name       string
			pool, swap uint64
		}{
			{"RemoteFetchFaults", pool.RemoteFetchFaults, swap.RemoteFetchFaults},
			{"RemotePushFaults", pool.RemotePushFaults, swap.RemotePushFaults},
			{"DeadlineMisses", pool.DeadlineMisses, swap.DeadlineMisses},
			{"OverloadRejects", pool.OverloadRejects, swap.OverloadRejects},
		} {
			if c.pool != c.swap || c.pool == 0 {
				t.Errorf("seed %d: %s = %d under the pool, %d under the swap; want equal and nonzero",
					seed, c.name, c.pool, c.swap)
			}
		}
	}
}
