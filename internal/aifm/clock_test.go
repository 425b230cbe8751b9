package aifm

import (
	"fmt"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

// recountCold counts the table's cold residents: the number the pool's
// cold count keeps without looking.
func recountCold(p *Pool) int64 {
	var n int64
	for id := range p.table {
		if p.Meta(ObjectID(id)).cold() {
			n++
		}
	}
	return n
}

// allHotPool fills a pool of the given number of slots with hot residents
// 0..slots-1 and returns it with the id of an object that lives only on the
// far side.
func allHotPool(tb testing.TB, slots int) (*Pool, *sim.Env, ObjectID) {
	p, env, _ := newTestPool(tb, 64, uint64(4*slots*64), uint64(slots*64))
	remote := ObjectID(3 * slots)
	touch(tb, p, remote, true)
	p.EvacuateAll()
	for id := ObjectID(0); id < ObjectID(slots); id++ {
		touch(tb, p, id, false)
	}
	return p, env, remote
}

// TestGentleTakeWithNothingColdIsANoOp pins down that a prefetch finding
// no cold resident gives up without a trace — exactly what a full failed
// clock lap used to leave — and that one cold resident is found.
func TestGentleTakeWithNothingColdIsANoOp(t *testing.T) {
	const slots = 8
	p, env, remote := allHotPool(t, slots)
	if n := p.cold.Load(); n != 0 {
		t.Fatalf("all-hot pool counts %d cold residents", n)
	}
	evacs, fetches, cycles, hand := env.Counters.Evacuations, env.Counters.RemoteFetches, env.Clock.Cycles(), p.hand.Load()
	p.Prefetch(remote)
	switch {
	case p.Meta(remote).Present():
		t.Fatalf("prefetch installed object %d with nothing cold to evict", remote)
	case env.Counters.Evacuations != evacs:
		t.Fatalf("prefetch evicted %d residents", env.Counters.Evacuations-evacs)
	case env.Counters.PrefetchIssued != 0 || env.Counters.RemoteFetches != fetches:
		t.Fatalf("prefetch issued %d fetches", env.Counters.RemoteFetches-fetches)
	case env.Clock.Cycles() != cycles:
		t.Fatalf("prefetch charged %d cycles", env.Clock.Cycles()-cycles)
	case (p.hand.Load()-hand)%uint64(len(p.slotOwner)) != 0:
		t.Fatalf("prefetch moved the clock hand to another slot")
	}

	// The next demand miss evicts what it would have without the prefetch:
	// pass 1 clears every H bit in one lap, and pass 2 starts back at slot
	// 0, which holds object 7 (the free stack hands out slots top down).
	twin, _, _ := allHotPool(t, slots)
	victim := func(p *Pool) ObjectID {
		touch(t, p, slots, false)
		for id := ObjectID(0); id < slots; id++ {
			if !p.Meta(id).Present() {
				return id
			}
		}
		t.Fatalf("demand miss on a full pool evicted none of its residents")
		return 0
	}
	if got, want := victim(p), victim(twin); got != want || got != 7 {
		t.Fatalf("demand miss after the prefetch evicted object %d; without it %d, want 7", got, want)
	}

	// One resident made cold is exactly the one a prefetch takes.
	p, env, remote = allHotPool(t, slots)
	p.storeMeta(3, p.Meta(3)&^MetaH)
	if n := p.cold.Load(); n != 1 {
		t.Fatalf("cold count %d after cooling one resident", n)
	}
	evacs = env.Counters.Evacuations
	p.Prefetch(remote)
	if n := env.Counters.Evacuations - evacs; n != 1 || env.Counters.PrefetchIssued != 1 {
		t.Fatalf("prefetch evicted %d and issued %d, want 1 and 1", n, env.Counters.PrefetchIssued)
	}
	for id := ObjectID(0); id < slots; id++ {
		if p.Meta(id).Present() == (id == 3) {
			t.Fatalf("object %d present=%v after the prefetch; only object 3 should be gone", id, p.Meta(id).Present())
		}
	}
	if !p.Meta(remote).Prefetched() || p.cold.Load() != 0 {
		t.Fatalf("object %d not installed as prefetched (cold count %d)", remote, p.cold.Load())
	}
}

// BenchmarkPrefetchNothingCold times a prefetch that finds no free slot and
// nothing cold to evict on a 2048-slot pool of hot residents — the
// prefetch a chunked scan issues when its working set fills local memory.
func BenchmarkPrefetchNothingCold(b *testing.B) {
	p, _, remote := allHotPool(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Prefetch(remote)
	}
	b.StopTimer()
	if p.Meta(remote).Present() {
		b.Fatalf("prefetch evicted a hot resident")
	}
}

// TestDemandMissOutlastsAContendedLap forces the lap a demand miss runs
// when no slot is free, the reserve floor is spent and every resident is
// evictable but cannot be taken just then: its stripe is busy, or its
// dirty write-back is refused. Neither means every slot is pinned, so the
// miss must wait the contention out and land, not panic.
func TestDemandMissOutlastsAContendedLap(t *testing.T) {
	const fresh = ObjectID(3) // its stripe is not 1's or 2's
	// setup returns a pool whose two circulating slots hold dirty objects 1
	// and 2, with every reserve slot taken.
	setup := func(t *testing.T, env *sim.Env, link fabric.ErrorTransport) *Pool {
		p, err := NewPool(Config{
			Env:          env,
			RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: 1},
			ObjectSize:   64,
			HeapSize:     64 * 256,
			LocalBudget:  64 * 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		touch(t, p, 1, true)
		touch(t, p, 2, true)
		for {
			if _, ok := p.popReserve(); !ok {
				break
			}
		}
		if p.freeCount() != 0 || p.ReserveFree() != 0 {
			t.Fatalf("%d free and %d reserve slots left, want none", p.freeCount(), p.ReserveFree())
		}
		return p
	}
	// miss runs a demand miss of the fresh object, a panic turned into an
	// error.
	miss := func(p *Pool) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		var buf [8]byte
		return p.Access(fresh, 0, buf[:], false)
	}

	t.Run("busy stripes", func(t *testing.T) {
		env := sim.NewEnv()
		p := setup(t, env, fabric.NewSimLink(env, fabric.BackendTCP))
		busy := []*stripe{p.stripeFor(1), p.stripeFor(2)}
		for _, st := range busy {
			st.mu.Lock()
		}
		hand := p.hand.Load()
		done := make(chan error, 1)
		go func() { done <- miss(p) }()
		// Two rounds of the clock's two passes: the miss has found only
		// busy stripes twice, and must still be waiting.
		for (p.hand.Load()-hand)/uint64(len(p.slotOwner)) < 4 {
			select {
			case err := <-done:
				t.Fatalf("the miss returned (%v) while every resident's stripe was busy", err)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		for _, st := range busy {
			st.mu.Unlock()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !p.Meta(fresh).Present() {
			t.Fatal("the miss returned without installing its object")
		}
	})

	t.Run("refused write-backs", func(t *testing.T) {
		// The link's outage refuses the miss's first 5 write-backs, more
		// than one lap's two victims: one delete before the miss puts the
		// window, which opens every other op past the setup's (a probe run
		// counts them), at the miss's first push, and the 6th lands.
		outage := func(every int) (*sim.Env, *fabric.FaultLink) {
			env := sim.NewEnv()
			return env, fabric.NewFaultLink(fabric.NewSimLink(env, fabric.BackendTCP), fabric.FaultConfig{OutageEvery: every, OutageLen: 5})
		}
		env, probe := outage(0)
		setup(t, env, probe)
		env, link := outage(int(probe.Stats().Ops) + 2)
		p := setup(t, env, link)
		if err := link.TryDeleteUntil(uint64(fresh), fabric.Deadline{}); err != nil {
			t.Fatal(err)
		}
		if err := miss(p); err != nil {
			t.Fatal(err)
		}
		if !p.Meta(fresh).Present() {
			t.Fatal("the miss returned without installing its object")
		}
		if n := env.Counters.EvictionStalls; n != 5 {
			t.Fatalf("%d eviction stalls, want the 5 refused write-backs", n)
		}
	})
}
