package core

import (
	"encoding/binary"
	"fmt"

	"trackfm/internal/aifm"
	"trackfm/internal/sim"
)

// guardObject is the compiler-injected guard of §3.3 / Figure 4 around one
// access to the object holding the target address: it moves len(buf) bytes
// between buf and object id at byte offset off. It performs the OST
// lookup, takes the fast path when the safety bits allow, and otherwise
// calls into the runtime (slow path), which localizes the object —
// possibly with a remote fetch. Costs follow Table 1; the cached/uncached
// split is decided by the OST warm-line model.
// Either way the pool re-checks residency and moves the bytes so that no
// eviction can interleave (Pool.Access): a resident read copies with no
// lock and keeps the bytes only if its stripe's sequence shows no
// eviction ran, like the paper's lock-free fast guard; anything else
// copies under the stripe lock. Between the safety check and the access
// the evacuator cannot delocalize the object unseen (what AIFM's
// out-of-scope barrier guarantees, §3.3).
// The guard also charges the access it guards, one load/store per 64
// bytes touched: on the fast path in the same meter charge as the guard,
// on the slow path after the slow-guard latency is observed, so that
// latency stays the guard's alone. Fast-path charges go to m (nil: the
// shared clock); the slow path flushes m first, since its latency is a
// reading of the clock.
func (r *Runtime) guardObject(m *Meter, id aifm.ObjectID, off uint64, buf []byte, write bool) {
	warm := r.cache.touch(uint64(id))
	meta := aifm.MetaAt(r.ost, id)
	costs := r.costs
	if r.noOST {
		// Ablation: without the contiguous object state table the guard
		// performs AIFM's two-reference lookup — find the object, then
		// chase its metadata pointer.
		if warm {
			m.add(r, costs.MetaIndirectCached)
		} else {
			m.add(r, costs.MetaIndirectUncached)
		}
	}
	data := uint64(len(buf)+63) / 64 * costs.LocalLoadStore
	if meta.Safe() {
		guard := costs.FastGuardReadUncached
		switch {
		case write && warm:
			guard = costs.FastGuardWriteCached
		case write:
			guard = costs.FastGuardWriteUncached
		case warm:
			guard = costs.FastGuardReadCached
		}
		m.guard(r, guard+data)
		r.pool.Access(id, off, buf, write)
		return
	}
	// Slow path: the runtime call that, in the paper, enters an AIFM
	// DerefScope. The measured slow-guard constants (Table 1) already
	// include the scope enter/exit work, so no separate scope cost is
	// charged here; the pin Pool.Access takes on a miss is the scope.
	m.Flush()
	slowStart := r.env.Clock.Cycles()
	sim.Inc(&r.counts.SlowPathGuards)
	switch {
	case write && warm:
		r.env.Clock.Advance(costs.SlowGuardWriteCached)
	case write:
		r.env.Clock.Advance(costs.SlowGuardWriteUncached)
	case warm:
		r.env.Clock.Advance(costs.SlowGuardReadCached)
	default:
		r.env.Clock.Advance(costs.SlowGuardReadUncached)
	}
	r.pool.Access(id, off, buf, write) // charges the remote fetch when absent
	r.lat.GuardSlow.Observe(r.env.Clock.Cycles() - slowStart)
	r.env.Clock.Advance(data)
}

// checkManaged panics on unmanaged pointers: by construction the compiler
// only routes custody-passing pointers here, so an unmanaged pointer is a
// transformation bug, the analogue of a general protection fault.
func checkManaged(p Ptr, op string) {
	if !p.Managed() {
		panic(fmt.Sprintf("core: %s through unmanaged pointer %#x", op, uint64(p)))
	}
}

// CustodyReject charges the cost of a custody check that failed (the
// pointer is not TrackFM-managed, so the original load/store runs
// unguarded). Callers — the IR interpreter, mainly — then perform the
// access against their own local memory.
func (r *Runtime) CustodyReject() {
	r.env.Clock.Advance(r.costs.CustodyCheck)
	sim.Inc(&r.counts.CustodyRejects)
}

// LoadU64 performs a guarded 8-byte load at p.
func (r *Runtime) LoadU64(p Ptr) uint64 {
	var buf [8]byte
	r.access(nil, p, buf[:], false, "LoadU64")
	return binary.LittleEndian.Uint64(buf[:])
}

// StoreU64 performs a guarded 8-byte store at p.
func (r *Runtime) StoreU64(p Ptr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.access(nil, p, buf[:], true, "StoreU64")
}

// Load performs a guarded read of len(dst) bytes starting at p. Reads
// spanning multiple objects are guarded once per object, matching the
// per-access guards the compiler emits for the element loop a bulk copy
// lowers to.
func (r *Runtime) Load(p Ptr, dst []byte) {
	r.access(nil, p, dst, false, "Load")
}

// Store performs a guarded write of src starting at p.
func (r *Runtime) Store(p Ptr, src []byte) {
	r.access(nil, p, src, true, "Store")
}

// access splits [p, p+len(buf)) into object-bounded segments and, for each,
// runs the guard, which moves the bytes and charges their access to m
// (nil: the shared clock).
func (r *Runtime) access(m *Meter, p Ptr, buf []byte, write bool, op string) {
	checkManaged(p, op)
	objSize := uint64(r.objSize)
	off := p.HeapOffset()
	if off+uint64(len(buf)) > r.heapSize {
		panic(fmt.Sprintf("core: %s at %#x+%d beyond heap end", op, uint64(p), len(buf)))
	}
	done := uint64(0)
	total := uint64(len(buf))
	for done < total {
		id := aifm.ObjectID((off + done) >> r.shift)
		inObj := (off + done) & (objSize - 1)
		n := objSize - inObj
		if total-done < n {
			n = total - done
		}
		r.guardObject(m, id, inObj, buf[done:done+n], write)
		done += n
	}
}
