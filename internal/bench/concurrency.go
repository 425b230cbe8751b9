package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

// mtWorkers is the worker-count sweep for the mt experiment.
var mtWorkers = []int{1, 2, 4, 8}

// mtScopeBatch bounds how many objects a worker holds pinned at once — one
// AIFM scope's worth — so concurrent workers never pin more than a sliver
// of the local budget.
const mtScopeBatch = 16

// mtScan measures how the striped pool scales when several goroutines scan
// far memory concurrently. The container this suite runs in is frequently a
// single-core machine, so wall-clock speedup would measure the Go scheduler
// rather than the runtime; instead each worker accrues a private virtual
// cycle clock from the calibrated cost model (scope entry, smart-pointer
// indirection, load, and a full remote round-trip per miss), and a phase
// completes when its slowest worker's clock does. With W workers splitting
// the same scan, perfect scaling halves the critical path each doubling;
// lock contention, singleflight collisions, and workers evicting each
// other's objects on their misses are the only things that can take it
// away, and the table reports those counters alongside the throughput.
//
// Two phases run per worker count: "disjoint" (workers scan disjoint object
// ranges — the striped table's best case, and the acceptance gate: >= 3x
// ops/sec at 8 workers vs 1) and "shared" (all workers scan the same range,
// so concurrent misses on one object collapse into a single fabric fetch —
// the singleflight path).
func mtScan(s Scale) *Table {
	const objSize = 4096
	nObjects := int(s.n(2048)) // 8 MB far heap at factor 1
	if nObjects < 256 {
		nObjects = 256
	}
	env := sim.NewEnv()
	pool, err := aifm.NewPool(aifm.Config{
		Env:         env,
		ObjectSize:  objSize,
		HeapSize:    uint64(nObjects) * objSize,
		LocalBudget: uint64(nObjects) * objSize / 4,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: mt pool: %v", err))
	}
	defer pool.Close()

	// Populate every object so scans read real data, then push the heap
	// remote so each phase starts cold.
	var buf [8]byte
	for id := aifm.ObjectID(0); id < aifm.ObjectID(nObjects); id++ {
		if err := pool.Access(id, 0, buf[:], true); err != nil {
			panic(fmt.Sprintf("bench: mt populate: %v", err))
		}
	}

	t := &Table{
		ID:      "mt",
		Title:   "Multi-goroutine scaling: striped pool, virtual per-worker clocks",
		Columns: []string{"phase", "workers", "ops", "Mops/s", "speedup", "lockWait", "sfShared", "evacs"},
	}
	var baseline float64
	for _, phase := range []string{"disjoint", "shared"} {
		for _, w := range mtWorkers {
			ops, opsPerSec, delta := mtPhase(env, pool, nObjects, objSize, w, phase == "shared")
			speedup := "—"
			if phase == "disjoint" {
				if w == 1 {
					baseline = opsPerSec
				}
				if baseline > 0 {
					speedup = f2(opsPerSec / baseline)
				}
			}
			t.AddRow(phase, d(uint64(w)), d(ops), f2(opsPerSec/1e6), speedup,
				d(delta.StripeContention), d(delta.SingleflightShared),
				d(delta.Evacuations))
		}
	}
	t.Notes = "Per-worker virtual clocks: each worker charges scope entry, smart-pointer " +
		"indirection, a local load, and a full remote object fetch per miss to a private " +
		"cycle counter; phase time = max worker clock (the critical path). disjoint: " +
		"workers scan disjoint ranges (striping's best case), and its rows reproduce run " +
		"to run but for lockWait; shared: all workers scan the same range, where " +
		"singleflight collapses concurrent misses into one fetch, and its rows do not: " +
		"which worker misses, and which joins another's fetch, depends on the wall-clock " +
		"schedule. lockWait = stripe lock acquisitions that blocked; sfShared = fetches " +
		"satisfied by another goroutine's in-flight fetch."
	return t
}

// mtPhase runs one scan with w workers and returns total ops, modeled
// ops/sec, and the counter delta the phase produced.
func mtPhase(env *sim.Env, pool *aifm.Pool, nObjects, objSize, w int, shared bool) (uint64, float64, sim.Counters) {
	pool.EvacuateAll()
	before := env.Counters.Snapshot()

	clocks := make([]uint64, w)
	var totalOps atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := 0, nObjects
		if !shared {
			per := nObjects / w
			lo = i * per
			hi = lo + per
			if i == w-1 {
				hi = nObjects
			}
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			costs := &env.Costs
			var clock, ops uint64
			var dst [8]byte
			for start := lo; start < hi; start += mtScopeBatch {
				end := min(start+mtScopeBatch, hi)
				clock += costs.DerefScopeCost
				for id := start; id < end; id++ {
					win, missed, err := pool.Pin(aifm.ObjectID(id), false)
					if err != nil {
						panic(fmt.Sprintf("bench: mt scan: %v", err))
					}
					copy(dst[:], win)
					clock += costs.SmartPointerIndirection + costs.LocalLoadStore
					if missed {
						clock += costs.RemoteObjectFetch(objSize)
					}
					ops++
				}
				for id := start; id < end; id++ {
					pool.Unpin(aifm.ObjectID(id))
				}
			}
			clocks[worker] = clock
			totalOps.Add(ops)
		}(i, lo, hi)
	}
	wg.Wait()

	var critical uint64
	for _, c := range clocks {
		if c > critical {
			critical = c
		}
	}
	ops := totalOps.Load()
	opsPerSec := 0.0
	if critical > 0 {
		opsPerSec = float64(ops) / (float64(critical) / sim.Frequency)
	}
	return ops, opsPerSec, env.Counters.Snapshot().Delta(before)
}
