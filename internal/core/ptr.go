// Package core implements the TrackFM runtime — the paper's primary
// contribution. It layers on the AIFM object pool (package aifm) the pieces
// the TrackFM compiler injects into applications:
//
//   - non-canonical far-memory pointers flagged in bit 60 (§3.1),
//   - a custom malloc/free replacing libc allocation (§3.1),
//   - the object state table caching AIFM metadata contiguously (§3.2),
//   - fast-path/slow-path guards around every heap load/store (§3.3),
//   - chunked-loop cursors and the loop-chunking cost model (§3.4).
//
// The compiler pipeline in package compiler emits calls into this runtime;
// workloads may also call it directly, playing the role of an
// already-transformed application.
package core

import "trackfm/internal/aifm"

// Ptr is a TrackFM far-memory pointer: a 64-bit virtual address in the
// x86 non-canonical range. TrackFM's allocator returns addresses starting
// at 2^60, so bit 60 distinguishes TrackFM-managed pointers from ordinary
// (stack, global, foreign-library) pointers — the custody check is a single
// shift: ptr >> 60 != 0 (§3.1). If such an address ever reached real
// hardware it would fault; here, only guarded accessors accept a Ptr.
type Ptr uint64

// ptrBase is the start of the TrackFM-managed non-canonical address range.
const ptrBase Ptr = 1 << 60

// Managed reports whether p passed the custody check, i.e. carries the
// TrackFM non-canonical flag bits.
func (p Ptr) Managed() bool { return p>>60 != 0 }

// HeapOffset strips the non-canonical bits, yielding the linear offset of
// p within the far heap. Offset math performed by applications (including
// integer-cast round trips) preserves the flag bits exactly as the paper
// requires, because the heap is far smaller than 2^60.
func (p Ptr) HeapOffset() uint64 { return uint64(p &^ (0xF << 60)) }

// Add offsets the pointer by n bytes, as compiler-lowered pointer
// arithmetic would.
func (p Ptr) Add(n uint64) Ptr { return p + Ptr(n) }

// object maps p to its AIFM object and intra-object offset for an object
// size of 1<<shift bytes: the paper's "divide the TrackFM pointer by the
// object size (a right shift for powers of two)".
func (p Ptr) object(shift uint) (aifm.ObjectID, uint64) {
	off := p.HeapOffset()
	return aifm.ObjectID(off >> shift), off & ((1 << shift) - 1)
}
