package aifm

import (
	"sync"
	"testing"

	"trackfm/internal/sim"
)

// newConcurrentPool builds a pool sized for the concurrency suite: shared
// read-only ids in [0, sharedIDs), one private id range per worker, and a
// local budget far smaller than the heap, so the workers' own demand misses
// evict constantly. The pool is closed by test cleanup.
func newConcurrentPool(t *testing.T, workers, perWorker int) *Pool {
	t.Helper()
	p, _, _ := newTestPool(t, 64, 1<<14, 1<<12)
	t.Cleanup(func() { p.Close() })
	if need := sharedIDs + workers*perWorker; need > int(p.NumObjects()) {
		t.Fatalf("pool too small: need %d objects, have %d", need, p.NumObjects())
	}
	// Stamp the shared range with a recognizable per-object marker byte.
	for id := ObjectID(0); id < sharedIDs; id++ {
		access(t, p, id, 1, []byte{marker(id)}, true)
	}
	return p
}

const sharedIDs = 64

func marker(id ObjectID) byte { return byte(id)*31 + 7 }

// stressWorker runs one goroutine's mixed workload: pinned writes and
// read-back checks on a private id range (no other goroutine touches it,
// so values must survive any interleaving of eviction, prefetch, and
// re-fetch), guarded reads of that range, pinned reads of the immutable
// shared range, prefetches, and frees. Returns an error message instead of
// calling t.Fatalf because it runs off the test goroutine.
func stressWorker(p *Pool, seed uint64, lo, perWorker, iters int, evacuate bool) string {
	rng := sim.NewRNG(seed)
	expected := make([]byte, perWorker)
	written := make([]bool, perWorker)
	for i := 0; i < iters; i++ {
		switch rng.Intn(16) {
		case 0, 1, 2, 3, 4: // pinned write + read-back under the same pin
			k := rng.Intn(perWorker)
			id := ObjectID(lo + k)
			v := byte(rng.Uint64())
			win, _, err := p.Pin(id, true)
			if err != nil {
				return err.Error()
			}
			win[1] = v
			got := win[1]
			p.Unpin(id)
			if got != v {
				return "same-pin read-back lost a write"
			}
			expected[k], written[k] = v, true
		case 5, 6, 7, 8, 9: // guarded read of private id
			k := rng.Intn(perWorker)
			var got [1]byte
			if err := p.Access(ObjectID(lo+k), 1, got[:], false); err != nil {
				return err.Error()
			}
			if got[0] != expected[k] {
				return "private value changed under another goroutine's feet"
			}
		case 10, 11, 12: // pinned read of the immutable shared range
			id := ObjectID(rng.Intn(sharedIDs))
			win, _, err := p.Pin(id, false)
			if err != nil {
				return err.Error()
			}
			got := win[1]
			p.Unpin(id)
			if got != marker(id) {
				return "shared read-only object corrupted"
			}
		case 13: // free a private id: next touch re-materializes zeros
			k := rng.Intn(perWorker)
			p.Free(ObjectID(lo + k))
			expected[k], written[k] = 0, true
		case 14: // speculative prefetch of a shared id
			p.Prefetch(ObjectID(rng.Intn(sharedIDs)))
		case 15:
			if evacuate && i%256 == 0 {
				p.EvacuateAll()
			}
		}
	}
	// Final sweep: every private value must equal the last write.
	for k := range expected {
		if !written[k] {
			continue
		}
		var got [1]byte
		if err := p.Access(ObjectID(lo+k), 1, got[:], false); err != nil {
			return err.Error()
		}
		if got[0] != expected[k] {
			return "final private value does not match last write"
		}
	}
	return ""
}

// TestConcurrentStress is the suite's race detector workout: eight
// goroutines hammer one pool with pinned reads, writes, frees, and
// prefetches while one of them periodically forces full evacuation and
// every miss evicts whatever the clock finds cold and unpinned. Run it
// under -race (make test-stress does).
func TestConcurrentStress(t *testing.T) {
	const workers, perWorker = 8, 16
	iters := 8000
	if testing.Short() {
		iters = 2000
	}
	p := newConcurrentPool(t, workers, perWorker)
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = stressWorker(p, uint64(w)+1, sharedIDs+w*perWorker, perWorker, iters, w == 0)
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
	if lb, budget := p.LocalBytes(), uint64(1<<12); lb > budget {
		t.Errorf("local budget exceeded: %d > %d", lb, budget)
	}
	// Quiesced: hold the cold count to the table it summarizes.
	if got, want := p.cold.Load(), recountCold(p); got != want {
		t.Errorf("cold count %d after quiesce, table holds %d", got, want)
	}
}

// TestConcurrentPinsBlockEvacuation pins one object from several
// goroutines at once and asserts eviction never steals it while any pin
// holds it.
func TestConcurrentPinsBlockEvacuation(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<14, 1<<12)
	t.Cleanup(func() { p.Close() })
	const id = ObjectID(7)
	win, _ := pin(t, p, id, true)
	win[0] = 42

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				win, _, err := p.Pin(id, false)
				if err != nil {
					t.Error(err)
					return
				}
				p.EvacuateAll() // must skip the pinned object
				got := win[0]
				p.Unpin(id)
				if got != 42 {
					t.Error("pinned object evacuated or corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
	if !p.Meta(id).Present() {
		t.Fatalf("object evacuated while the outer pin still held it")
	}
	p.Unpin(id)
}
