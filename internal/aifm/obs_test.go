package aifm

import (
	"io"
	"sync"
	"testing"
)

// TestPoolMetricsTickerRace models a stats ticker scraping the registry
// while the (single-timeline) pool churns objects through eviction and
// fetch. The pool itself is not concurrent; the scrape is — counters,
// clock, and histograms must read race-free (this test is in the -race
// set of `make test`), and every snapshot must be monotonic in the
// fetch counter.
func TestPoolMetricsTickerRace(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<10) // 16 slots: constant churn

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the ticker: snapshot, delta, and exposition under load
		defer wg.Done()
		reg := env.Metrics()
		prev := reg.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := reg.Snapshot()
			d := cur.Delta(prev)
			if d.Counter("trackfm_remote_fetches_total") > 1<<40 {
				t.Error("fetch counter went backwards between snapshots")
				return
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			prev = cur
		}
	}()

	buf := make([]byte, 64)
	for round := 0; round < 50; round++ {
		for id := ObjectID(0); id < 64; id++ { // 4x the slot count
			buf[0] = byte(round)
			access(t, p, id, 0, buf, true)
		}
		for id := ObjectID(0); id < 64; id++ {
			access(t, p, id, 0, buf, false)
		}
	}
	close(stop)
	wg.Wait()

	snap := env.Metrics().Snapshot()
	if snap.Counter("trackfm_remote_fetches_total") == 0 {
		t.Fatal("workload produced no remote fetches; churn too small to exercise the histogram")
	}
	if snap.Histogram("trackfm_remote_fetch_cycles").Count() == 0 {
		t.Fatal("remote fetch histogram recorded nothing")
	}
	if snap.Counter("trackfm_remote_fetches_total") != env.Counters.Snapshot().RemoteFetches {
		t.Fatal("registry and counter block disagree on remote fetches")
	}
}
