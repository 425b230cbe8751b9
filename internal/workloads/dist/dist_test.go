package dist

import (
	"math"
	"testing"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.0, 1); err == nil {
		t.Errorf("zero-item Zipf accepted")
	}
	if _, err := NewZipf(10, -1, 1); err == nil {
		t.Errorf("negative skew accepted")
	}
	if _, err := NewZipf(10, 1.0, 1); err != nil {
		t.Errorf("skew exactly 1 rejected: %v", err)
	}
}

func TestZipfRange(t *testing.T) {
	z, err := NewZipf(1000, 1.02, 42)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	for i := 0; i < 100_000; i++ {
		r := z.Next()
		if r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	counts := func(s float64) float64 {
		z, err := NewZipf(100_000, s, 7)
		if err != nil {
			t.Fatalf("NewZipf: %v", err)
		}
		hot := 0
		const samples = 200_000
		for i := 0; i < samples; i++ {
			if z.Next() < 100 { // top 0.1% of keys
				hot++
			}
		}
		return float64(hot) / samples
	}
	low := counts(1.01)
	high := counts(1.3)
	if high <= low {
		t.Fatalf("higher skew should concentrate more mass: s=1.01 -> %.3f, s=1.3 -> %.3f", low, high)
	}
	if low < 0.2 {
		t.Fatalf("zipf 1.01 top-0.1%% mass = %.3f, implausibly low", low)
	}
}

func TestZipfRankZeroHottest(t *testing.T) {
	z, _ := NewZipf(10_000, 1.1, 3)
	freq := make(map[uint64]int)
	for i := 0; i < 100_000; i++ {
		freq[z.Next()]++
	}
	if freq[0] <= freq[100] {
		t.Fatalf("rank 0 (%d hits) not hotter than rank 100 (%d hits)", freq[0], freq[100])
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, _ := NewZipf(1000, 1.05, 99)
	b, _ := NewZipf(1000, 1.05, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed Zipf diverged at %d", i)
		}
	}
}

func TestZipfTrace(t *testing.T) {
	z, _ := NewZipf(100, 1.02, 5)
	for i := 0; i < 500; i++ {
		if r := z.Next(); r >= 100 {
			t.Fatalf("trace rank %d out of range", r)
		}
	}
}

func TestUSRSizes(t *testing.T) {
	u := NewUSR(1)
	for i := 0; i < 10_000; i++ {
		k := u.KeySize()
		if k != 16 && k != 21 {
			t.Fatalf("key size %d", k)
		}
		v := u.ValueSize()
		switch v {
		case 2, 11, 25, 100, 500, 1000:
		default:
			t.Fatalf("value size %d", v)
		}
	}
}

func TestUSRValueDistributionShape(t *testing.T) {
	u := NewUSR(2)
	count2 := 0
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		v := u.ValueSize()
		sum += float64(v)
		if v == 2 {
			count2++
		}
	}
	frac2 := float64(count2) / n
	if frac2 < 0.65 || frac2 > 0.75 {
		t.Fatalf("2B value fraction = %.3f, want ~0.70", frac2)
	}
	mean := sum / n
	if math.Abs(mean-u.MeanValueSize()) > 2.0 {
		t.Fatalf("empirical mean %.2f vs analytic %.2f", mean, u.MeanValueSize())
	}
}
