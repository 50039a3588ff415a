package main

import (
	"math"
	"testing"
)

// TestMannWhitneyHandComputed checks U and the two-sided p-value against
// values worked out by hand.
func TestMannWhitneyHandComputed(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
		u, p float64
	}{
		// Complete separation: U = 0; P(U ≤ 0) = 1/C(6,3) = 1/20.
		{"separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		// Ranks of x are 1, 2, 4: U = 7 − 6 = 1; P(U ≤ 1) = 2/20.
		{"one-inversion", []float64{1, 2, 4}, []float64{3, 5, 6}, 1, 0.2},
		// The mirror image: U = 3·3 − 1 = 8, same p.
		{"mirrored", []float64{3, 5, 6}, []float64{1, 2, 4}, 8, 0.2},
		// Ties at 2 share rank 3: R_x = 1+3+3 = 7, U = 1. Normal
		// approximation: mean 4.5, variance 9/12·(7 − 24/30) = 4.65,
		// z = (3.5 − 0.5)/√4.65 = 1.391217, p = erfc(z/√2) = 0.164160.
		{"ties", []float64{1, 2, 2}, []float64{2, 3, 4}, 1, 0.164160},
		// Identical samples: U = n·m/2 and p = 1.
		{"identical", []float64{5, 5}, []float64{5, 5}, 2, 1},
	}
	for _, c := range cases {
		u, p := mannWhitney(c.x, c.y)
		if u != c.u || math.Abs(p-c.p) > 5e-6 {
			t.Errorf("%s: U=%v p=%.6f, want U=%v p=%.6f", c.name, u, p, c.u, c.p)
		}
	}
}

// TestExactPMatchesNormalForLargeSamples cross-checks the exact null
// distribution against the normal approximation where both apply.
func TestExactPMatchesNormalForLargeSamples(t *testing.T) {
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = float64(2*i) + 0.5*float64(i%3)
		y[i] = float64(2*i + 3)
	}
	u, exact := mannWhitney(x, y)
	n := 40.0
	z := (math.Abs(u-200) - 0.5) / math.Sqrt(400.0/12*(n+1))
	normal := math.Erfc(z / math.Sqrt2)
	if math.Abs(exact-normal) > 0.01 {
		t.Errorf("U=%v: exact p %.4f, normal approximation %.4f", u, exact, normal)
	}
}

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{name: "trials_per_s", better: "higher", bound: 0.10}
	lower := metricDef{name: "job_p50_s", better: "lower", bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"same", higher, base, base, "unchanged"},
		{"faster", higher, base, scaled(1.05), "improved"},
		{"much slower", higher, base, scaled(0.8), "worse"},
		{"slightly slower", higher, base, scaled(0.95), "unchanged"},
		{"lower is better", lower, base, scaled(0.95), "improved"},
		{"noisy baseline", higher, []float64{50, 150, 60, 140, 100}, []float64{100, 100, 100, 100, 100}, "unresolved"},
		{"noisy change", lower, base, []float64{100, 140, 150, 105, 145}, "unresolved"},
		{"too few pairs", higher, base[:3], scaled(1.05)[:3], "unchanged"},
	}
	for _, c := range cases {
		if got := compareSeries(c.old, c.new, median(c.old), median(c.new), c.def).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
