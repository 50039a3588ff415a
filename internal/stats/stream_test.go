package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustStream(t *testing.T, quantiles []float64, exactK int) *Stream {
	t.Helper()
	s, err := NewStream(quantiles, exactK)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func addAll(t *testing.T, s *Stream, xs []float64) {
	t.Helper()
	for _, x := range xs {
		if err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream([]float64{1.5}, 0); err == nil {
		t.Error("target quantile > 1 must be rejected")
	}
	if _, err := NewStream([]float64{math.NaN()}, 0); err == nil {
		t.Error("NaN target quantile must be rejected")
	}
	if _, err := NewStream(nil, 3); err == nil {
		t.Error("exactK below the P² initialization minimum must be rejected")
	}
	s, err := NewStream(nil, 0)
	if err != nil || s == nil {
		t.Fatalf("default construction failed: %v", err)
	}
}

func TestStreamEmptyErrors(t *testing.T) {
	s := mustStream(t, []float64{0.5}, 0)
	if _, err := s.Mean(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Stddev(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Stddev on empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile on empty = %v, want ErrEmpty", err)
	}
	if err := s.Add(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stddev(); !errors.Is(err, ErrInsufficient) {
		t.Errorf("Stddev on one element = %v, want ErrInsufficient", err)
	}
}

func TestStreamRejectsNaN(t *testing.T) {
	s := mustStream(t, []float64{0.5}, 0)
	addAll(t, s, []float64{1, 2})
	if err := s.Add(math.NaN()); !errors.Is(err, ErrNaN) {
		t.Fatalf("Add(NaN) = %v, want ErrNaN", err)
	}
	// The rejected value must not have touched any state.
	if s.Count() != 2 {
		t.Errorf("count after rejected Add = %d, want 2", s.Count())
	}
	if m, _ := s.Mean(); m != 1.5 {
		t.Errorf("mean after rejected Add = %v, want 1.5", m)
	}
}

// TestStreamExactRegimeMatchesBatch: below the spill threshold the stream
// must agree with the batch statistics — quantiles identically (same
// code path over the same multiset), moments up to rounding.
func TestStreamExactRegimeMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	s := mustStream(t, []float64{0.5, 0.9}, 0)
	addAll(t, s, xs)
	if !s.Exact() {
		t.Fatal("500 values with default exactK must stay exact")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.97, 1} {
		want, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("q=%v: stream %v != batch %v", q, got, want)
		}
	}
	wantMean, _ := Mean(xs)
	gotMean, _ := s.Mean()
	if !almostEqual(gotMean, wantMean, 1e-9*math.Abs(wantMean)+1e-12) {
		t.Errorf("mean: stream %v != batch %v", gotMean, wantMean)
	}
	wantSd, _ := Stddev(xs)
	gotSd, _ := s.Stddev()
	if !almostEqual(gotSd, wantSd, 1e-9*wantSd) {
		t.Errorf("stddev: stream %v != batch %v", gotSd, wantSd)
	}
	gotMin, _ := s.Min()
	gotMax, _ := s.Max()
	wantMax := slices.Max(xs)
	if gotMax != wantMax {
		t.Errorf("max: stream %v != batch %v", gotMax, wantMax)
	}
	if q0, _ := Quantile(xs, 0); gotMin != q0 {
		t.Errorf("min: stream %v != batch %v", gotMin, q0)
	}
}

// TestStreamP2Accuracy: beyond the spill threshold the P² estimates must
// land near the exact sample quantiles. The check brackets each estimate
// between the exact (q-eps)- and (q+eps)-quantiles, which is the natural
// tolerance for an order-statistic sketch.
func TestStreamP2Accuracy(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(*rand.Rand) float64
	}{
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() }},
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
	} {
		t.Run(dist.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			xs := make([]float64, 60000)
			for i := range xs {
				xs[i] = dist.gen(rng)
			}
			s := mustStream(t, []float64{0.5, 0.9, 0.99}, 512)
			addAll(t, s, xs)
			if s.Exact() {
				t.Fatal("60000 values past exactK=512 must have spilled")
			}
			const eps = 0.02
			for _, q := range []float64{0.5, 0.9, 0.99} {
				got, err := s.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				lo, _ := Quantile(xs, math.Max(0, q-eps))
				hi, _ := Quantile(xs, math.Min(1, q+eps))
				if got < lo || got > hi {
					t.Errorf("q=%v: P² estimate %v outside exact band [%v, %v]", q, got, lo, hi)
				}
			}
			// Moments stay exact regardless of the sketch spilling.
			wantMean, _ := Mean(xs)
			gotMean, _ := s.Mean()
			if !almostEqual(gotMean, wantMean, 1e-9) {
				t.Errorf("mean diverged: %v vs %v", gotMean, wantMean)
			}
		})
	}
}

func TestStreamQuantileUntrackedAfterSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := mustStream(t, []float64{0.5}, 8)
	for i := 0; i < 100; i++ {
		if err := s.Add(rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Exact() {
		t.Fatal("must have spilled")
	}
	if _, err := s.Quantile(0.25); !errors.Is(err, ErrUntracked) {
		t.Errorf("untracked quantile error = %v, want ErrUntracked", err)
	}
	// 0, 0.5 and 1 remain answerable: tracked target plus exact extremes.
	for _, q := range []float64{0, 0.5, 1} {
		if _, err := s.Quantile(q); err != nil {
			t.Errorf("Quantile(%v) after spill: %v", q, err)
		}
	}
}

func TestStreamMergeConfigMismatch(t *testing.T) {
	a := mustStream(t, []float64{0.5}, 16)
	b := mustStream(t, []float64{0.9}, 16)
	c := mustStream(t, []float64{0.5}, 32)
	addAll(t, a, []float64{1})
	addAll(t, b, []float64{2})
	addAll(t, c, []float64{3})
	if err := a.Merge(b); err == nil {
		t.Error("merging different targets must fail")
	}
	if err := a.Merge(c); err == nil {
		t.Error("merging different exactK must fail")
	}
}

// TestStreamMergeMatchesSingleStream cross-checks every merge regime
// (exact+exact staying exact, exact+exact spilling, spilled+exact,
// exact+spilled, spilled+spilled) against a single stream fed the
// concatenated values, and against the exact batch statistics.
func TestStreamMergeMatchesSingleStream(t *testing.T) {
	const exactK = 64
	cases := []struct {
		name   string
		sizes  []int
		spills bool
	}{
		{"exact-stays-exact", []int{20, 30}, false},
		{"exact-pair-spills", []int{50, 40}, true},
		{"spilled-absorbs-exact", []int{200, 30}, true},
		{"exact-adopts-spilled", []int{30, 200}, true},
		{"spilled-pair", []int{200, 300}, true},
		{"many-shards", []int{10, 90, 200, 5, 60}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var all []float64
			merged := mustStream(t, []float64{0.5, 0.9}, exactK)
			single := mustStream(t, []float64{0.5, 0.9}, exactK)
			for _, sz := range tc.sizes {
				part := mustStream(t, []float64{0.5, 0.9}, exactK)
				for i := 0; i < sz; i++ {
					x := rng.NormFloat64() * 10
					all = append(all, x)
					addAll(t, part, []float64{x})
					addAll(t, single, []float64{x})
				}
				if err := merged.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
			if merged.Exact() != !tc.spills {
				t.Fatalf("spilled=%v, want %v", !merged.Exact(), tc.spills)
			}
			if merged.Count() != int64(len(all)) {
				t.Fatalf("count %d, want %d", merged.Count(), len(all))
			}
			// Counts, extremes and moments are exact in every regime.
			wantMean, _ := Mean(all)
			gotMean, _ := merged.Mean()
			if !almostEqual(gotMean, wantMean, 1e-9) {
				t.Errorf("mean %v, want %v", gotMean, wantMean)
			}
			wantSd, _ := Stddev(all)
			gotSd, _ := merged.Stddev()
			if !almostEqual(gotSd, wantSd, 1e-9) {
				t.Errorf("stddev %v, want %v", gotSd, wantSd)
			}
			gotMax, _ := merged.Max()
			wantMax := slices.Max(all)
			if gotMax != wantMax {
				t.Errorf("max %v, want %v", gotMax, wantMax)
			}
			// Quantiles: identical to the batch in the exact regime; within
			// a ±0.1-quantile band of the exact answer once estimating (the
			// generous bound absorbs the weighted marker merge).
			for _, q := range []float64{0.5, 0.9} {
				got, err := merged.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				if merged.Exact() {
					want, _ := Quantile(all, q)
					if got != want {
						t.Errorf("q=%v exact: %v, want %v", q, got, want)
					}
					continue
				}
				lo, _ := Quantile(all, math.Max(0, q-0.1))
				hi, _ := Quantile(all, math.Min(1, q+0.1))
				if got < lo || got > hi {
					t.Errorf("q=%v estimate %v outside [%v, %v]", q, got, lo, hi)
				}
				// And the merged sketch should track the single-stream
				// sketch (same values, different fold order) closely.
				ref, _ := single.Quantile(q)
				if sd, _ := Stddev(all); math.Abs(got-ref) > sd {
					t.Errorf("q=%v merged %v far from single-stream %v", q, got, ref)
				}
			}
		})
	}
}

// TestStreamMergeDoesNotMutateSource: the engine merges left to right and may
// reuse sources afterwards in principle; Merge must treat src as read-only.
func TestStreamMergeDoesNotMutateSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := mustStream(t, []float64{0.5}, 16)
	for i := 0; i < 100; i++ {
		addAll(t, src, []float64{rng.Float64()})
	}
	before, _ := src.Quantile(0.5)
	cnt := src.Count()
	dst := mustStream(t, []float64{0.5}, 16)
	for i := 0; i < 100; i++ {
		addAll(t, dst, []float64{rng.Float64() + 10})
	}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	after, _ := src.Quantile(0.5)
	if before != after || src.Count() != cnt {
		t.Error("Merge mutated its source")
	}
}

// TestStreamPropertyCrossCheck is the satellite property test: on random
// workloads the streaming mean/variance must match the exact batch values,
// and streaming quantiles must match exactly in the exact regime and fall
// inside an exact-quantile band after spilling.
func TestStreamPropertyCrossCheck(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, spill bool) bool {
		n := 2 + int(sizeRaw%2000)
		exactK := DefaultExactK
		if spill {
			exactK = 32
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * (1 + rng.Float64()*50)
		}
		s, err := NewStream([]float64{0.5, 0.95}, exactK)
		if err != nil {
			return false
		}
		for _, x := range xs {
			if err := s.Add(x); err != nil {
				return false
			}
		}
		wantMean, _ := Mean(xs)
		gotMean, _ := s.Mean()
		if !almostEqual(gotMean, wantMean, 1e-8*(1+math.Abs(wantMean))) {
			return false
		}
		wantSd, _ := Stddev(xs)
		gotSd, _ := s.Stddev()
		if !almostEqual(gotSd, wantSd, 1e-8*(1+wantSd)) {
			return false
		}
		for _, q := range []float64{0.5, 0.95} {
			got, err := s.Quantile(q)
			if err != nil {
				return false
			}
			if s.Exact() {
				want, _ := Quantile(xs, q)
				if got != want {
					return false
				}
				continue
			}
			lo, _ := Quantile(xs, math.Max(0, q-0.15))
			hi, _ := Quantile(xs, math.Min(1, q+0.15))
			if got < lo || got > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamConstantValues: a degenerate all-equal sample must not break
// the P² marker invariants (division by zero in the interpolation).
func TestStreamConstantValues(t *testing.T) {
	s := mustStream(t, []float64{0.5, 0.99}, 8)
	for i := 0; i < 1000; i++ {
		if err := s.Add(42); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got, err := s.Quantile(q)
		if err != nil || got != 42 {
			t.Fatalf("Quantile(%v) of constant sample = %v (%v), want 42", q, got, err)
		}
	}
	sd, err := s.Stddev()
	if err != nil || sd != 0 {
		t.Fatalf("Stddev of constant sample = %v (%v), want 0", sd, err)
	}
}

// TestStreamMergeConfigMismatchEvenWhenEmpty: compatibility must be checked
// before the empty-source fast path, so detection does not depend on which
// operand happened to receive values.
func TestStreamMergeConfigMismatchEvenWhenEmpty(t *testing.T) {
	a := mustStream(t, []float64{0.5}, 16)
	addAll(t, a, []float64{1, 2})
	empty := mustStream(t, []float64{0.9}, 16)
	if err := a.Merge(empty); err == nil {
		t.Error("merging an empty stream with different targets must still fail")
	}
}
