package farmem

import (
	"encoding/binary"
	"fmt"
	"math"

	"trackfm/internal/core"
)

// Uint64s is a far-memory slice of uint64. Random access (At/Set) runs
// through TrackFM guards; Range runs through a chunked, prefetching
// cursor — exactly the two code paths the compiler would choose between.
type Uint64s struct {
	h    *Heap
	base core.Ptr
	n    int
}

// NewUint64s allocates a far-memory slice of n uint64s (zeroed).
func NewUint64s(h *Heap, n int) (*Uint64s, error) {
	base, err := h.alloc(n, 8)
	if err != nil {
		return nil, err
	}
	return &Uint64s{h: h, base: base, n: n}, nil
}

// Len reports the element count.
func (s *Uint64s) Len() int { return s.n }

func (s *Uint64s) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("farmem: index %d out of range [0,%d)", i, s.n))
	}
}

// At reads element i (guarded access).
func (s *Uint64s) At(i int) uint64 {
	s.check(i)
	return s.h.rt.LoadU64(s.base.Add(uint64(i) * 8))
}

// Set writes element i (guarded access).
func (s *Uint64s) Set(i int, v uint64) {
	s.check(i)
	s.h.rt.StoreU64(s.base.Add(uint64(i)*8), v)
}

// Range iterates elements in order through a chunk cursor with
// prefetching, stopping early if fn returns false. The loop body runs over
// the pinned object's bytes in place, one span per object, and reports
// what it consumed at the span's end — the chunked loop the compiler
// emits. fn may call back into the heap; it sees its own stores.
func (s *Uint64s) Range(fn func(i int, v uint64) bool) {
	cur := s.h.rt.NewCursor(s.base, 8, true)
	defer cur.Close()
	for i := 0; i < s.n; {
		span := cur.Span(uint64(i), uint64(s.n-i), false)
		for o := 0; o < len(span); o += 8 {
			if !fn(i+o/8, binary.LittleEndian.Uint64(span[o:])) {
				cur.Consumed(o/8 + 1)
				return
			}
		}
		cur.Consumed(len(span) / 8)
		i += len(span) / 8
	}
}

// Fill writes v to every element through a chunk cursor.
func (s *Uint64s) Fill(v uint64) {
	cur := s.h.rt.NewCursor(s.base, 8, true)
	defer cur.Close()
	for i := 0; i < s.n; {
		span := cur.Span(uint64(i), uint64(s.n-i), true)
		for o := 0; o < len(span); o += 8 {
			binary.LittleEndian.PutUint64(span[o:], v)
		}
		cur.Consumed(len(span) / 8)
		i += len(span) / 8
	}
}

// Float64s is a far-memory slice of float64: a Uint64s holding IEEE-754
// bit patterns, with the same access paths.
type Float64s struct{ bits Uint64s }

// NewFloat64s allocates a far-memory slice of n float64s (zeroed).
func NewFloat64s(h *Heap, n int) (*Float64s, error) {
	base, err := h.alloc(n, 8)
	if err != nil {
		return nil, err
	}
	return &Float64s{bits: Uint64s{h: h, base: base, n: n}}, nil
}

// Len reports the element count.
func (s *Float64s) Len() int { return s.bits.n }

// At reads element i (guarded access).
func (s *Float64s) At(i int) float64 { return math.Float64frombits(s.bits.At(i)) }

// Set writes element i (guarded access).
func (s *Float64s) Set(i int, v float64) { s.bits.Set(i, math.Float64bits(v)) }

// Range iterates elements in order through a chunk cursor with
// prefetching, stopping early if fn returns false.
func (s *Float64s) Range(fn func(i int, v float64) bool) {
	s.bits.Range(func(i int, b uint64) bool { return fn(i, math.Float64frombits(b)) })
}

// Fill writes v to every element through a chunk cursor.
func (s *Float64s) Fill(v float64) { s.bits.Fill(math.Float64bits(v)) }

// Bytes is a far-memory byte buffer. ReadAt/WriteAt move arbitrary
// ranges through guarded accesses (one guard per object touched).
type Bytes struct {
	h    *Heap
	base core.Ptr
	n    int
}

// NewBytes allocates a far-memory buffer of n bytes (zeroed).
func NewBytes(h *Heap, n int) (*Bytes, error) {
	base, err := h.alloc(n, 1)
	if err != nil {
		return nil, err
	}
	return &Bytes{h: h, base: base, n: n}, nil
}

// Len reports the buffer size.
func (b *Bytes) Len() int { return b.n }

func (b *Bytes) checkRange(off, l int) {
	if off < 0 || l < 0 || off > b.n-l { // not off+l > b.n, which overflows
		panic(fmt.Sprintf("farmem: range [%d,%d+%d) out of [0,%d)", off, off, l, b.n))
	}
}

// ReadAt copies len(p) bytes starting at off into p.
func (b *Bytes) ReadAt(off int, p []byte) {
	b.checkRange(off, len(p))
	b.h.rt.Load(b.base.Add(uint64(off)), p)
}

// WriteAt copies p into the buffer starting at off.
func (b *Bytes) WriteAt(off int, p []byte) {
	b.checkRange(off, len(p))
	b.h.rt.Store(b.base.Add(uint64(off)), p)
}
