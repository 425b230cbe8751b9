package obs

import (
	"sort"
	"sync/atomic"
)

// DefaultCycleBuckets are the histogram upper bounds used for latency
// metrics measured in simulated clock cycles. They span ~0.4µs to ~7ms at
// the simulator's 2.4 GHz clock in powers of two — wide enough to cover a
// local-hit slow path at the bottom and a multi-retry fetch over a
// degraded fabric at the top. Power-of-two bounds keep quantile
// interpolation error proportional to the value itself.
var DefaultCycleBuckets = []uint64{
	1 << 10, // 1Ki cycles ≈ 0.43 µs
	1 << 11,
	1 << 12,
	1 << 13,
	1 << 14,
	1 << 15,
	1 << 16,
	1 << 17,
	1 << 18,
	1 << 19,
	1 << 20, // 1Mi cycles ≈ 0.44 ms
	1 << 21,
	1 << 22,
	1 << 23,
	1 << 24, // 16Mi cycles ≈ 7 ms
}

// Histogram is a fixed-bucket distribution. Observations are uint64
// values (for latency metrics: simulated clock cycles); each lands in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// bucket at the end. Observe, Snapshot, and Reset are all safe for
// concurrent use.
type Histogram struct {
	bounds []uint64        // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// A nil or empty bounds slice uses DefaultCycleBuckets. Panics if bounds
// are not strictly ascending.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultCycleBuckets
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Reset zeroes all buckets and the sum. Concurrent observers may land in
// either the old or new epoch; callers that need a clean epoch (Env.Reset
// between benchmark phases) invoke it quiescently.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Snapshot copies the buckets into a plain-data snapshot. The per-bucket
// loads are individually atomic; a concurrent Observe may or may not be
// included (same contract as Registry.Snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction, shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts has one
// entry per bound plus a final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []uint64
	Counts []uint64
	Sum    uint64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket. Values in the +Inf bucket
// report the largest finite bound (the standard Prometheus convention).
// Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		hi := float64(s.Bounds[i])
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Delta returns the histogram delta since prev (bucket-wise and sum
// subtraction). Bounds must match; mismatched shapes return s unchanged,
// which only happens if a histogram was re-registered with new buckets
// between snapshots.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(s.Counts) {
		return s
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}
