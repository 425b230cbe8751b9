// Package sim provides the deterministic simulation substrate shared by all
// far-memory backends in this repository: a virtual cycle clock, event
// counters, the calibrated cycle-cost tables from the TrackFM paper
// (Tables 1 and 2), and a seeded random number source.
//
// Every runtime event in the system — a compiler-injected guard, a kernel
// page fault, a network transfer — charges its cost to a Clock. Wall-clock
// results are then derived as cycles divided by the simulated CPU frequency
// (2.40 GHz, matching the paper's Xeon E5-2640v4 testbed). Because all
// costs are deterministic, every experiment in the benchmark harness is
// reproducible bit-for-bit.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Frequency is the simulated CPU clock rate in cycles per second. The
// paper's testbed CPUs are clocked at 2.40 GHz.
const Frequency = 2_400_000_000

// Clock accumulates simulated cycles. The zero value is a clock at cycle
// zero, ready to use. It is one logical timeline that every goroutine of a
// run charges: Advance is an atomic add, so concurrent chargers (farmem's
// callers, the pool's) and observers (stats tickers, the metrics registry,
// breaker deadlines read from probe goroutines) never race.
//
// A charger may also hold cycles back and add them later in one sum — the
// guard layer's core.Meter does, for the fast-path guards and chunked
// accesses of one goroutine. The contract that keeps the simulation exact
// is the charger's: it flushes what it holds before anything on its
// goroutine reads the clock (a slow path timing itself, a reader handed
// the Env), so every reading it can cause is the one charging each access
// as it ran would have given. A reader on another goroutine may see such a
// charger's cycles late, never lost.
type Clock struct {
	cycles uint64 // accessed atomically; plain uint64 keeps Clock copyable
}

// Advance charges n cycles to the clock.
func (c *Clock) Advance(n uint64) { atomic.AddUint64(&c.cycles, n) }

// Cycles reports the total cycles charged so far.
func (c *Clock) Cycles() uint64 { return atomic.LoadUint64(&c.cycles) }

// Reset returns the clock to cycle zero.
func (c *Clock) Reset() { atomic.StoreUint64(&c.cycles, 0) }

// Seconds reports the elapsed simulated time in seconds as a float, which
// is the unit most of the paper's figures use.
func (c *Clock) Seconds() float64 {
	return float64(c.Cycles()) / Frequency
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("%d cycles (%.3fs @2.4GHz)", c.Cycles(), c.Seconds())
}
