package detrand

import (
	"math"
	"testing"
	"time"
)

// key builds a measurement key in the simnet layout:
// Hash(seed, kind, src, dst, family, time).
func key(kind, src, dst, family uint64, at time.Duration) uint64 {
	return Hash(1, kind, src, dst, family, uint64(at))
}

func floats(key uint64, n int) []float64 {
	r := New(key)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// correlation is the Pearson correlation of a[i] and b[i+lag].
func correlation(a, b []float64, lag int) float64 {
	var sa, sb, saa, sbb, sab, n float64
	for i := range a {
		j := i + lag
		if j < 0 || j >= len(b) {
			continue
		}
		x, y := a[i], b[j]
		sa, sb, saa, sbb, sab, n = sa+x, sb+y, saa+x*x, sbb+y*y, sab+x*y, n+1
	}
	cov := sab/n - sa/n*sb/n
	return cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
}

func TestSameKeySameStream(t *testing.T) {
	a, b := New(key(0, 3, 4, 4, time.Hour)), New(key(0, 3, 4, 4, time.Hour))
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d differs for the same key", i)
		}
	}
	if String("edge") != String("edge") || String("a") == String("a\x00") || String("ab") == String("ba") {
		t.Error("String must be a deterministic, length- and order-sensitive key")
	}
}

// TestAdjacentKeysUncorrelated compares the first 1000 draws of streams
// whose keys differ in one coordinate by the smallest step. Pearson r over
// 1000 independent uniforms has standard deviation ~0.032; the bound is
// about four of those. Lags ±1 catch one stream being a shift of the other.
func TestAdjacentKeysUncorrelated(t *testing.T) {
	const n = 1000
	at := 6 * time.Hour
	base := key(0, 17, 42, 4, at)
	for name, k := range map[string]uint64{
		"at+1ns":     key(0, 17, 42, 4, at+1),
		"src+1":      key(0, 18, 42, 4, at),
		"dst,src":    key(0, 42, 17, 4, at),
		"v6":         key(0, 17, 42, 6, at),
		"traceroute": key(1, 17, 42, 4, at),
	} {
		if k == base {
			t.Errorf("%s: key collides with the base key", name)
			continue
		}
		a, b := floats(base, n), floats(k, n)
		for lag := -1; lag <= 1; lag++ {
			if r := correlation(a, b, lag); math.Abs(r) > 0.13 {
				t.Errorf("%s: correlation %.3f at lag %d over %d draws", name, r, lag, n)
			}
		}
	}
}

func TestMoments(t *testing.T) {
	const n = 200000
	for _, c := range []struct {
		name           string
		draw           func(*Rand) float64
		mean, variance float64
		lo, hi         float64
	}{
		{"Float64", (*Rand).Float64, 0.5, 1.0 / 12, 0, 1},
		{"NormFloat64", (*Rand).NormFloat64, 0, 1, math.Inf(-1), math.Inf(1)},
		{"ExpFloat64", (*Rand).ExpFloat64, 1, 1, 0, math.Inf(1)},
	} {
		r := New(Hash(7, 1))
		var s, ss float64
		for i := 0; i < n; i++ {
			x := c.draw(&r)
			if x < c.lo || x >= c.hi || math.IsNaN(x) {
				t.Fatalf("%s drew %v outside [%v, %v)", c.name, x, c.lo, c.hi)
			}
			s += x
			ss += x * x
		}
		mean := s / n
		variance := ss/n - mean*mean
		// Five standard errors of the mean. The variance bound, 3.5% of
		// the true variance, is about five standard errors for the
		// exponential, whose sample variance scatters most (sqrt(8/n)).
		if math.Abs(mean-c.mean) > 5*math.Sqrt(c.variance/n) {
			t.Errorf("%s mean = %.4f, want %.4f", c.name, mean, c.mean)
		}
		if math.Abs(variance-c.variance) > 0.035*c.variance {
			t.Errorf("%s variance = %.4f, want %.4f", c.name, variance, c.variance)
		}
	}
}

func TestIntNUniform(t *testing.T) {
	r := New(Hash(7, 2))
	const k, per = 7, 10000
	var counts [k]int
	for i := 0; i < k*per; i++ {
		v := r.IntN(k)
		if v < 0 || v >= k {
			t.Fatalf("IntN(%d) = %d", k, v)
		}
		counts[v]++
	}
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c - per)
		chi2 += d * d / per
	}
	// χ² with 6 degrees of freedom exceeds 22.46 with probability 0.001.
	if chi2 > 22.46 {
		t.Errorf("IntN(%d) counts %v: χ² = %.1f", k, counts, chi2)
	}
	if v := r.IntN(1); v != 0 {
		t.Errorf("IntN(1) = %d", v)
	}
	if v := r.IntN(math.MaxInt); v < 0 || v == math.MaxInt {
		t.Errorf("IntN(MaxInt) = %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) did not panic")
		}
	}()
	r.IntN(0)
}

var sink float64

// TestSeedAndDrawAllocationFree covers one measurement's life: key the
// generator, then draw a traceroute's worth of noise and coins.
func TestSeedAndDrawAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		r := New(Hash(1, 1, 17, 42, 4, uint64(time.Hour)))
		for i := 0; i < 64; i++ {
			sink += r.NormFloat64() + r.Float64()
		}
		sink += r.ExpFloat64() + float64(r.IntN(10))
	})
	if allocs != 0 {
		t.Errorf("seeding and drawing allocates %.1f times, want 0", allocs)
	}
}
