// Package dist provides the workload distributions the paper's evaluation
// uses: the Zipfian key popularity distribution (hashmap and memcached
// benchmarks, skew 1.0-1.3) and the USR key/value size distribution from
// Facebook's memcached study (Atikoglu et al., SIGMETRICS '12).
package dist

import (
	"fmt"
	"math"

	"trackfm/internal/sim"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It uses the Gray et al. incremental method popularized by
// YCSB, which supports any skew s > 0, s != 1 exactly via the generalized
// harmonic numbers (s == 1 is handled by a tiny epsilon shift).
type Zipf struct {
	rng   *sim.RNG
	n     uint64
	s     float64
	zetan float64
	eta   float64
	alpha float64
	half  float64 // 0.5^s
}

// NewZipf builds a sampler over n items with skew s, seeded
// deterministically.
func NewZipf(n uint64, s float64, seed uint64) (*Zipf, error) {
	if n == 0 {
		return nil, fmt.Errorf("dist: Zipf over zero items")
	}
	if s <= 0 {
		return nil, fmt.Errorf("dist: Zipf skew %v must be positive", s)
	}
	if s == 1 {
		s = 1.0000001
	}
	z := &Zipf{rng: sim.NewRNG(seed), n: n, s: s}
	z.zetan = zeta(n, s)
	zeta2 := zeta(2, s)
	z.alpha = 1.0 / (1.0 - s)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-s)) / (1 - zeta2/z.zetan)
	z.half = math.Pow(0.5, s)
	return z, nil
}

// zeta computes the generalized harmonic number H_{n,s}. For large n the
// tail is approximated by the integral, keeping construction O(1)-ish.
func zeta(n uint64, s float64) float64 {
	const exact = 10_000
	var sum float64
	limit := n
	if limit > exact {
		limit = exact
	}
	for i := uint64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), s)
	}
	if n > exact {
		// Integral tail: ∫ x^-s dx from `exact` to n.
		sum += (math.Pow(float64(n), 1-s) - math.Pow(float64(exact), 1-s)) / (1 - s)
	}
	return sum
}

// Next returns the next sampled rank in [0, n). Rank 0 is the hottest key.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+z.half {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}
