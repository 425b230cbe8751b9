package core

import "trackfm/internal/sim"

// Meter holds one goroutine's pending fast-path charges as plain integers:
// the cycles, fast-path guards and chunked boundary checks its guards and
// cursors have run but not yet put on the runtime's shared clock and
// counters. The paper's fast guard is 14 instructions and a chunked access
// a 3-instruction compare (Table 1, §3.4); charging either with two atomic
// adds to words every goroutine shares would cost more than the access it
// models, so a run charges its own meter and Flush hands the sum over.
//
// Flush runs before anything on the goroutine can read what the meter
// holds: at a slow-guard entry, before the latency it observes starts; at
// a cursor crossing, NewCursor, Close and the first store into a chunk;
// and wherever the owner hands the clock to a reader (interp.Backend.Env).
// A sum does not depend on when its terms arrive, so the shared clock plus
// the pending cycles always equals what charging each access as it ran
// would have left, and no simulated cycle moves.
//
// A Meter comes from Runtime.NewMeter and is not safe for concurrent use:
// it is one goroutine's, like a Cursor. It must not be copied once charged.
//
// The Runtime's own LoadU64, StoreU64, Load, Store and NewCursor have no
// meter: inside the guard layer a nil *Meter stands for that, its charges
// go straight to the shared clock and counters, and Flush on it does
// nothing. So their callers see every charge at every return, and a guard
// makes its two atomic adds before its copy, not behind the copy's loads.
type Meter struct {
	rt             *Runtime
	cycles         uint64
	fastGuards     uint64
	boundaryChecks uint64
}

// NewMeter returns an empty meter charging r.
func (r *Runtime) NewMeter() Meter { return Meter{rt: r} }

// Flush moves the pending charges onto the runtime's shared clock and
// counters, one atomic add per non-zero field, and empties the meter.
func (m *Meter) Flush() {
	if m == nil {
		return
	}
	r := m.rt
	if m.cycles != 0 {
		r.env.Clock.Advance(m.cycles)
		m.cycles = 0
	}
	if m.fastGuards != 0 {
		sim.Add(&r.counts.FastPathGuards, m.fastGuards)
		m.fastGuards = 0
	}
	if m.boundaryChecks != 0 {
		sim.Add(&r.counts.BoundaryChecks, m.boundaryChecks)
		m.boundaryChecks = 0
	}
}

// add charges n cycles to m, or to r's clock when m is nil.
func (m *Meter) add(r *Runtime, n uint64) {
	if m == nil {
		r.env.Clock.Advance(n)
		return
	}
	m.cycles += n
}

// guard charges a fast-path guard of n cycles to m, or to r's clock and
// counters when m is nil.
func (m *Meter) guard(r *Runtime, n uint64) {
	if m == nil {
		sim.Inc(&r.counts.FastPathGuards)
		r.env.Clock.Advance(n)
		return
	}
	m.cycles += n
	m.fastGuards++
}

// checks charges k boundary checks of n cycles in all to m, or to r's clock
// and counters when m is nil.
func (m *Meter) checks(r *Runtime, k, n uint64) {
	if m == nil {
		r.env.Clock.Advance(n)
		sim.Add(&r.counts.BoundaryChecks, k)
		return
	}
	m.cycles += n
	m.boundaryChecks += k
}

// LoadU64 is Runtime.LoadU64 charged to m.
func (m *Meter) LoadU64(p Ptr) uint64 { return m.rt.word(m, p, 0, false, "LoadU64") }

// StoreU64 is Runtime.StoreU64 charged to m.
func (m *Meter) StoreU64(p Ptr, v uint64) { m.rt.word(m, p, v, true, "StoreU64") }

// NewCursor is Runtime.NewCursor charged to m: the cursor's boundary checks
// go to m until its Close.
func (m *Meter) NewCursor(base Ptr, elemSize int, prefetch bool) *Cursor {
	return m.rt.newCursor(m, base, elemSize, prefetch)
}
