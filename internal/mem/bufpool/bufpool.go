// Package bufpool provides the size-classed buffer pool behind every hot-path
// scratch buffer in the tree: wire frames on the fabric server, remote blob
// storage, and the object/page evacuation buffers of the aifm and fastswap
// runtimes.
//
// A Pool holds power-of-two size classes from 64 B to 64 KiB. Fixed-size
// callers — the far engine's write-behind copies, one aifm object or one
// page each — get an exact class, since every such unit in the tree is a
// power of two in that range. Each class is a sync.Pool, giving per-P
// sharded, lock-free reuse, fronting a small bounded free list whose
// buffers — unlike sync.Pool's, which the collector drops every two GC
// cycles — survive GC, so a steady-state working set of buffers never
// rejoins the garbage collector at all.
//
// Ownership follows one rule everywhere: Get returns a Lease, the holder
// of the Lease owns the buffer, and exactly one Release returns it.
// Passing a lease's Bytes() to a callee never transfers ownership (callees
// copy — see fabric.ErrorTransport's contract); handing off the Lease
// value itself does. Double releases panic; in -race builds (or after
// SetDebug(true)) every live lease is tracked so tests can assert
// leak-freedom with Outstanding().
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"trackfm/internal/obs"
)

const (
	minShift = 6  // smallest class: 64 B
	maxShift = 16 // largest class: 64 KiB
	nClasses = maxShift - minShift + 1

	// MinSize and MaxSize bound the pooled size classes; requests outside
	// them are served by plain allocations (counted as misses, and their
	// releases as foreign frees).
	MinSize = 1 << minShift
	MaxSize = 1 << maxShift

	// reservoirBytes budgets each class's GC-surviving free list: enough
	// buffers to absorb a burst without pinning unbounded memory. Every
	// class keeps at least reservoirMin entries.
	reservoirBytes = 1 << 18
	reservoirMin   = 4
)

// Stats is the pool's counter block. All fields are atomic; Register
// exposes them under the trackfm_bufpool_* namespace.
type Stats struct {
	gets         atomic.Uint64
	puts         atomic.Uint64
	misses       atomic.Uint64
	foreignFrees atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Gets         uint64 // leases issued
	Puts         uint64 // leases released
	Misses       uint64 // gets that had to allocate (cold class or oversize)
	ForeignFrees uint64 // releases of buffers the pool cannot recycle
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Gets:         s.gets.Load(),
		Puts:         s.puts.Load(),
		Misses:       s.misses.Load(),
		ForeignFrees: s.foreignFrees.Load(),
	}
}

// Register exposes the counters on reg. The labels distinguish multiple
// pools in one registry.
func (s *Stats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("trackfm_bufpool_gets_total",
		"Buffer leases issued by the pool.",
		s.gets.Load, labels...)
	reg.CounterFunc("trackfm_bufpool_puts_total",
		"Buffer leases released back to the pool.",
		s.puts.Load, labels...)
	reg.CounterFunc("trackfm_bufpool_misses_total",
		"Leases that had to allocate: cold size class or oversize request.",
		s.misses.Load, labels...)
	reg.CounterFunc("trackfm_bufpool_foreign_frees_total",
		"Releases of buffers the pool did not issue and cannot recycle (adopted or oversize); they return to the garbage collector.",
		s.foreignFrees.Load, labels...)
}

// class is one size class: a per-P sync.Pool fronting a bounded free list.
// Gets drain the sync.Pool first (no lock), then the reservoir, then
// allocate. Puts prefer the reservoir while it has room and its lock is
// uncontended — those buffers survive GC — and overflow into the
// sync.Pool's per-P caches otherwise.
type class struct {
	size  int
	stats *Stats
	sp    sync.Pool // holds *[]byte (pointer-shaped: Put/Get never box-allocate)
	mu    sync.Mutex
	free  []*[]byte
}

func (c *class) init(size int, stats *Stats) {
	c.size = size
	c.stats = stats
	n := reservoirBytes / size
	if n < reservoirMin {
		n = reservoirMin
	}
	c.free = make([]*[]byte, 0, n)
}

func (c *class) get() *[]byte {
	if v := c.sp.Get(); v != nil {
		return v.(*[]byte)
	}
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		bp := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return bp
	}
	c.mu.Unlock()
	return nil
}

func (c *class) put(bp *[]byte) {
	// TryLock keeps the reservoir off the put path's critical section: a
	// contended put falls through to the per-P cache instead of queueing.
	if c.mu.TryLock() {
		if len(c.free) < cap(c.free) {
			c.free = append(c.free, bp)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	c.sp.Put(bp)
}

// lease builds a Lease over a class buffer (or a fresh one on a miss).
func (c *class) lease(n int) Lease {
	c.stats.gets.Add(1)
	bp := c.get()
	if bp == nil {
		c.stats.misses.Add(1)
		b := make([]byte, c.size)
		bp = &b
	}
	return Lease{buf: bp, cls: c, stats: c.stats, n: n}
}

// Lease is ownership of one pooled buffer. The zero Lease is valid and
// empty (Bytes is nil, Release is a no-op), so it can be stored in structs
// that may or may not hold a buffer. Lease is a value; copying it does not
// split ownership — exactly one copy may Release.
type Lease struct {
	buf   *[]byte
	cls   *class // nil for adopted/oversize buffers (not recycled)
	stats *Stats
	n     int
	dbg   bool // tracked in the debug live set at issue time
}

// Bytes returns the leased buffer, sliced to the requested length. Valid
// until Release.
func (l Lease) Bytes() []byte {
	if l.buf == nil {
		return nil
	}
	return (*l.buf)[:l.n]
}

// Release returns the buffer to its pool. Releasing the zero Lease is a
// no-op; releasing the same Lease twice panics (and in debug builds a
// release through a second copy of the Lease panics too).
func (l *Lease) Release() {
	if l.buf == nil {
		if l.stats != nil {
			panic("bufpool: double release")
		}
		return
	}
	if l.dbg {
		debugUntrack(l.buf)
	}
	l.stats.puts.Add(1)
	if l.cls != nil {
		l.cls.put(l.buf)
	} else {
		// Oversize: a plain allocation with no class to recycle it into —
		// it returns to the collector.
		l.stats.foreignFrees.Add(1)
	}
	l.buf = nil
}

// classIndex maps a request size to its class index, or -1 for oversize.
func classIndex(n int) int {
	if n > MaxSize {
		return -1
	}
	if n <= MinSize {
		return 0
	}
	return bits.Len(uint(n-1)) - minShift
}

// Pool is the size-classed buffer pool: eleven power-of-two classes from
// 64 B to 64 KiB. The zero Pool is not ready; use New. Pool is safe for
// concurrent use.
type Pool struct {
	classes [nClasses]class
	stats   Stats
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{}
	for i := range p.classes {
		p.classes[i].init(1<<(minShift+i), &p.stats)
	}
	return p
}

// Get leases a buffer of length n (capacity rounded up to the class size).
// Requests above MaxSize are served by a plain allocation whose release is
// a foreign free. n must be >= 0; Get(0) returns an owned zero-length
// buffer from the smallest class.
func (p *Pool) Get(n int) Lease {
	if n < 0 {
		panic(fmt.Sprintf("bufpool: Get(%d)", n))
	}
	var l Lease
	if ci := classIndex(n); ci >= 0 {
		l = p.classes[ci].lease(n)
	} else {
		p.stats.gets.Add(1)
		p.stats.misses.Add(1)
		b := make([]byte, n)
		l = Lease{buf: &b, stats: &p.stats, n: n}
	}
	l.dbg = debugTrack(l.buf)
	return l
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() StatsSnapshot { return p.stats.Snapshot() }

// Register exposes the pool's counters on reg.
func (p *Pool) Register(reg *obs.Registry, labels ...obs.Label) {
	p.stats.Register(reg, labels...)
}

// Wire is the process-wide shared pool for wire frames and blob storage:
// the fabric server's frame scratch and remote.Store blob storage both
// draw from it, so a payload's storage can
// hand from one layer to the next without changing pools.
var Wire = New()

// Get leases from the shared Wire pool.
func Get(n int) Lease { return Wire.Get(n) }
