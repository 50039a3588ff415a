package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

// TestQuantileRejectsNaN is the regression test for NaN poisoning: NaN
// compares false against everything, so sort.Float64s produces an arbitrary
// order and Quantile silently returned garbage instead of an error.
func TestQuantileRejectsNaN(t *testing.T) {
	for _, xs := range [][]float64{
		{math.NaN()},
		{1, 2, math.NaN(), 4},
		{math.NaN(), math.NaN()},
	} {
		if _, err := Quantile(xs, 0.5); !errors.Is(err, ErrNaN) {
			t.Errorf("Quantile(%v) error = %v, want ErrNaN", xs, err)
		}
	}
	// A NaN q must also be rejected: it passes `q < 0 || q > 1` because NaN
	// fails every comparison.
	if _, err := Quantile([]float64{1, 2, 3}, math.NaN()); err == nil {
		t.Error("Quantile with NaN q must error")
	}
}

func TestStddev(t *testing.T) {
	got, err := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.138, 0.001) {
		t.Fatalf("Stddev = %v, want ~2.138", got)
	}
}

// TestStddevInsufficientVsEmpty pins the error split: an empty sample is
// ErrEmpty, a one-element sample (which has no deviation) is the distinct
// ErrInsufficient rather than the misleading ErrEmpty.
func TestStddevInsufficientVsEmpty(t *testing.T) {
	if _, err := Stddev(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Stddev(nil) error = %v, want ErrEmpty", err)
	}
	_, err := Stddev([]float64{3})
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("Stddev(one element) error = %v, want ErrInsufficient", err)
	}
	if errors.Is(err, ErrEmpty) {
		t.Error("Stddev(one element) must not report ErrEmpty")
	}
}

func TestLinearFitInsufficientVsEmpty(t *testing.T) {
	if _, _, err := LinearFit(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("LinearFit(empty) error = %v, want ErrEmpty", err)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("LinearFit(one point) error = %v, want ErrInsufficient", err)
	}
}

func TestMedianOddEven(t *testing.T) {
	m, err := Quantile([]float64{3, 1, 2}, 0.5)
	if err != nil || m != 2 {
		t.Fatalf("median odd = %v (%v), want 2", m, err)
	}
	m, err = Quantile([]float64{4, 1, 3, 2}, 0.5)
	if err != nil || m != 2.5 {
		t.Fatalf("median even = %v (%v), want 2.5", m, err)
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 5 {
		t.Fatalf("Quantile(0)=%v Quantile(1)=%v, want 1 and 5", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("expected error for q > 1")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHarmonicNumber(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{0, 1}, {1, 1}, {2, 1.5}, {4, 25.0 / 12}}
	for _, c := range cases {
		if got := HarmonicNumber(c.n); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("H(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// H(n) ~ ln n + gamma.
	if got := HarmonicNumber(100000); !almostEqual(got, math.Log(100000)+0.5772156649, 1e-4) {
		t.Errorf("H(1e5) = %v diverges from ln n + gamma", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 3, 1e-12) {
		t.Fatalf("fit = (%v, %v), want (2, 3)", slope, intercept)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("expected error for degenerate x")
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	alpha, c, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(alpha, 1.5, 1e-9) || !almostEqual(c, 3, 1e-9) {
		t.Fatalf("fit = (%v, %v), want (1.5, 3)", alpha, c)
	}
}

func TestFitPowerLawRejectsNonPositive(t *testing.T) {
	if _, _, err := FitPowerLaw([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for non-positive x")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%50)
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v, err := Quantile(xs, qq)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawRecoversExponentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.5 + 2*rng.Float64()
		c := 0.5 + rng.Float64()
		xs := []float64{2, 4, 8, 16, 32, 64}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, alpha)
		}
		gotA, gotC, err := FitPowerLaw(xs, ys)
		return err == nil && almostEqual(gotA, alpha, 1e-6) && almostEqual(gotC, c, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
