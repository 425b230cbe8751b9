package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trackfm/internal/modeltest"
	"trackfm/internal/sim"
)

// TestMeterMatchesUnmetered is the meter's differential oracle, the core
// model's metered twin: on each runtime, a fault-free trace of mallocs,
// frees, words (some across two objects), byte ranges and chunked walks
// leaves a runtime whose guards and cursors charge a Meter exactly where
// the one charging the shared clock is — after every access, once the
// pending charges are counted in; the meter is empty after every slow path
// and crossing; and at quiesce, flushed, every counter and every latency
// histogram is equal. Each seed must make remote fetches, evacuations,
// prefetches, refaults, fast guards and boundary checks, and every kind of
// 8-byte access.
func TestMeterMatchesUnmetered(t *testing.T) {
	for _, lib := range []bool{false, true} {
		t.Run(map[bool]string{false: "trackfm", true: "library"}[lib], func(t *testing.T) {
			for s := uint64(1); s <= 3; s++ {
				t.Run(fmt.Sprint("seed", s), func(t *testing.T) {
					coreModel.Case(t, modeltest.Schedules["fault-free"], runtimeOn(lib), coreModel.Trace(sim.NewRNG(s), coreModel.Len), meterStates...)
				})
			}
		})
	}
}

// TestMetersConcurrent: two goroutines, each with its own meter, charge one
// runtime over disjoint resident arrays while a reader samples the
// counters and the clock (run under -race). Once both have flushed, the
// clock and every counter are what the two runs made alone, one after the
// other, sum to — stripe-lock waits aside, which only concurrency can
// cause.
func TestMetersConcurrent(t *testing.T) {
	const words = 4096 // per goroutine: 16 objects of 2 KiB
	setup := func() (*Runtime, [2]Ptr) {
		rt := newTestRuntime(t, 2048, 1<<18, 1<<18)
		var arrs [2]Ptr
		for g := range arrs {
			arrs[g] = rt.MustMalloc(words * 8)
			for i := uint64(0); i < words; i++ {
				rt.StoreU64(arrs[g].Add(i*8), i)
			}
		}
		rt.env.ResetStats()
		rt.env.Clock.Reset()
		return rt, arrs
	}
	work := func(rt *Runtime, p Ptr, seed int64) {
		m := rt.NewMeter()
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			for k := 0; k < 200; k++ {
				q := p.Add(uint64(rng.Intn(words)) * 8)
				if v := m.LoadU64(q); rng.Intn(4) == 0 {
					m.StoreU64(q, v+1)
				}
			}
			c := m.NewCursor(p, 8, false)
			for i := uint64(0); i < words; i++ {
				c.StoreU64(i, c.LoadU64(i)+1)
			}
			c.Close()
		}
		m.Flush()
	}
	total := func(rt *Runtime) (uint64, sim.Counters) {
		c := rt.env.Counters.Snapshot()
		c.StripeContention = 0
		return rt.env.Clock.Cycles(), c
	}

	// The two runs made alone, one after the other.
	rt, arrs := setup()
	for g := range arrs {
		work(rt, arrs[g], int64(g))
	}
	wantCycles, want := total(rt)

	rt, arrs = setup()
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = rt.env.Counters.Snapshot()
			if c := rt.env.Clock.Cycles(); c < last {
				t.Errorf("clock went back from %d to %d", last, c)
			} else {
				last = c
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			work(rt, arrs[g], int64(g))
		}(g)
	}
	wg.Wait()
	close(done)
	reader.Wait()
	if cycles, got := total(rt); cycles != wantCycles || got != want {
		t.Fatalf("concurrent run: %d cycles, %v; the solo runs sum to %d cycles, %v",
			cycles, got.String(), wantCycles, want.String())
	}
}
