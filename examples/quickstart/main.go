// Quickstart: the smallest possible TrackFM program.
//
// It plays the role of a compiler-transformed application: allocate far
// memory through the TrackFM allocator, access it through guards, and let
// the runtime move objects between local memory and the (simulated)
// remote node. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"trackfm/internal/core"
	"trackfm/internal/sim"
)

func main() {
	env := sim.NewEnv()
	rt, err := core.NewRuntime(core.Config{
		Env:         env,
		ObjectSize:  4096,     // one compile-time object size (§3.2)
		HeapSize:    32 << 20, // 32 MB far heap
		LocalBudget: 4 << 20,  // only 4 MB may stay local
	})
	if err != nil {
		panic(err)
	}

	// "malloc" returns a non-canonical TrackFM pointer: bit 60 is set,
	// so the custody check can tell it apart from ordinary pointers.
	const n = 1 << 20 // 8 MB array: twice the local budget
	arr := rt.MustMalloc(n * 8)
	fmt.Printf("allocated %d KB at %#x (custody flag set: %v)\n",
		n*8/1024, uint64(arr), arr.Managed())

	// Naive transformation: every access runs a guard.
	var sum uint64
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(arr.Add(i*8), i)
	}
	for i := uint64(0); i < n; i++ {
		sum += rt.LoadU64(arr.Add(i * 8))
	}
	fmt.Printf("guarded sum   = %d (%s simulated)\n", sum, env.Clock.String())
	fmt.Printf("guards: %d fast, %d slow; %d remote fetches, %.1f MB moved\n",
		env.Counters.FastPathGuards, env.Counters.SlowPathGuards,
		env.Counters.RemoteFetches, float64(env.Counters.BytesFetched)/(1<<20))

	// Chunked transformation (what the loop-chunking pass emits): one
	// boundary check per access instead of a full guard, with
	// compiler-directed prefetch at object boundaries.
	env.Reset()
	sum = 0
	cur := rt.NewCursor(arr, 8, true)
	for i := uint64(0); i < n; i++ {
		sum += cur.LoadU64(i)
	}
	cur.Close()
	fmt.Printf("chunked sum   = %d (%s simulated)\n", sum, env.Clock.String())
	fmt.Printf("boundary checks: %d; locality guards: %d; prefetch hits: %d\n",
		env.Counters.BoundaryChecks, env.Counters.LocalityGuards,
		env.Counters.PrefetchHits)

	// The runtime is safe for concurrent use: guarded accesses ride
	// lock-striped pool state and pin objects across the data copy, so
	// goroutines can share one heap. Each goroutine gets its own cursor
	// (a cursor is a single-goroutine object); here four
	// workers sum disjoint quarters of the same far-memory array.
	const workers = 4
	parts := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := rt.NewCursor(arr, 8, true)
			for i := uint64(w) * (n / workers); i < uint64(w+1)*(n/workers); i++ {
				parts[w] += c.LoadU64(i)
			}
			c.Close()
		}(w)
	}
	wg.Wait()
	var parSum uint64
	for _, p := range parts {
		parSum += p
	}
	fmt.Printf("parallel sum  = %d across %d goroutines (matches: %v)\n",
		parSum, workers, parSum == sum)
	if want := uint64(n) * (n - 1) / 2; sum != want || parSum != want {
		panic(fmt.Sprintf("sums %d and %d, want %d", sum, parSum, want))
	}
}
