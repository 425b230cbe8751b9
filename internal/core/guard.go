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
// possibly with a remote fetch (guardEnter charges either).
// Either way the pool re-checks residency and moves the bytes so that no
// eviction can interleave (Pool.Access): a resident read copies with no
// lock and keeps the bytes only if its stripe's sequence shows no
// eviction ran, like the paper's lock-free fast guard; anything else
// copies under the stripe lock. Between the safety check and the access
// the evacuator cannot delocalize the object unseen (what AIFM's
// out-of-scope barrier guarantees, §3.3).
// The guard also charges the access it guards, one load/store per 64
// bytes touched.
func (r *Runtime) guardObject(m *Meter, id aifm.ObjectID, off uint64, buf []byte, write bool) {
	data := uint64(len(buf)+63) / 64 * r.costs.LocalLoadStore
	slowStart, slow := r.guardEnter(m, id, write, data)
	if err := r.pool.Access(id, off, buf, write); err != nil {
		fetchFailed(id, err)
	}
	if slow {
		r.guardExit(slowStart, data)
	}
}

// guardEnter is a guard's charge up to its access, by Table 1: it touches
// the OST entry of object id once, charges the noOST ablation's
// indirection, and then either a fast guard plus data, the cycles of the
// access it guards, to m (nil: the shared clock), or the slow path's
// entry. The slow path flushes m first, since its latency is a reading of
// the clock, and reports the cycle it started at: the caller runs the
// access — the pool charges a remote fetch when the object is absent — and
// then guardExit.
func (r *Runtime) guardEnter(m *Meter, id aifm.ObjectID, write bool, data uint64) (slowStart uint64, slow bool) {
	warm := r.cache.touch(uint64(id))
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
	if aifm.MetaAt(r.ost, id).Safe() {
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
		return 0, false
	}
	// Slow path: the runtime call that, in the paper, enters an AIFM
	// DerefScope. The measured slow-guard constants (Table 1) already
	// include the scope enter/exit work, so no separate scope cost is
	// charged here; the pin the pool takes on a miss is the scope.
	m.Flush()
	slowStart = r.env.Clock.Cycles()
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
	return slowStart, true
}

// guardExit ends a slow path guardEnter began at slowStart, once the access
// is done: it observes the slow guard's latency, then charges the data
// cycles, so that latency stays the guard's alone.
func (r *Runtime) guardExit(slowStart, data uint64) {
	r.lat.GuardSlow.Observe(r.env.Clock.Cycles() - slowStart)
	r.env.Clock.Advance(data)
}

// fetchFailed panics with a fetch error the far engine gave up on: a guard
// or a chunk crossing has no error to return, and the mutator must never
// run on a zero-filled ghost of its data (the SIGBUS analogue). It stays
// out of line: inlined, its formatting would grow the guard's frame.
//
//go:noinline
func fetchFailed(id aifm.ObjectID, err error) {
	panic(fmt.Sprintf("aifm: unrecoverable remote fetch for object %d: %v", id, err))
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
func (r *Runtime) LoadU64(p Ptr) uint64 { return r.word(nil, p, 0, false, "LoadU64") }

// StoreU64 performs a guarded 8-byte store at p.
func (r *Runtime) StoreU64(p Ptr, v uint64) { r.word(nil, p, v, true, "StoreU64") }

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

// word is access for the 8 bytes at p, stored from v when write, returning
// the word after the access. A word inside one object decodes the pointer
// once and is guardObject's guard around one Pool.Word, the pool's
// one-load or one-store access; a word that straddles two objects — or
// runs past the heap's end, which access reports — takes access's byte
// path, which guards each object it touches.
func (r *Runtime) word(m *Meter, p Ptr, v uint64, write bool, op string) uint64 {
	checkManaged(p, op)
	off := p.HeapOffset()
	if inObj := off & uint64(r.objSize-1); inObj <= uint64(r.objSize)-8 && off+8 <= r.heapSize {
		id := aifm.ObjectID(off >> r.shift)
		data := r.costs.LocalLoadStore
		slowStart, slow := r.guardEnter(m, id, write, data)
		w, err := r.pool.Word(id, inObj, v, write)
		if err != nil {
			fetchFailed(id, err)
		}
		if slow {
			r.guardExit(slowStart, data)
		}
		return w
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.access(m, p, buf[:], write, op)
	return binary.LittleEndian.Uint64(buf[:])
}
