// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, harmonic numbers, and power-law
// (log-log) exponent fitting for scaling experiments.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("empty sample")

// ErrInsufficient is returned when a sample is non-empty but still too small
// for the requested statistic (e.g. Stddev of a single value).
var ErrInsufficient = errors.New("insufficient sample")

// ErrNaN is returned when a sample (or a streamed value) contains NaN, which
// has no place in an order statistic: NaN compares false against everything,
// so it silently corrupts sort-based quantiles instead of failing loudly.
var ErrNaN = errors.New("sample contains NaN")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Stddev returns the sample standard deviation of xs. An empty sample is
// ErrEmpty; a one-element sample has no deviation and is ErrInsufficient.
func Stddev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) < 2 {
		return 0, ErrInsufficient
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. A sample containing NaN is
// rejected with ErrNaN rather than silently producing a garbage order.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	// NaN fails every comparison, so `q < 0 || q > 1` alone would let it
	// through and index the slice with int(NaN).
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, errors.New("quantile out of [0,1]")
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return 0, ErrNaN
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// HarmonicNumber returns H(n) = sum_{i=1..n} 1/i, with H(0) = 1 as defined
// in the paper's Lemma 15.
func HarmonicNumber(n int) float64 {
	if n <= 0 {
		return 1
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// LinearFit returns the least-squares slope and intercept of y against x.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("length mismatch")
	}
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if len(xs) < 2 {
		return 0, 0, ErrInsufficient
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, errors.New("degenerate x values")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// FitPowerLaw fits y = c * x^alpha by least squares on (log x, log y) and
// returns the exponent alpha and constant c. All inputs must be positive.
func FitPowerLaw(xs, ys []float64) (alpha, c float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return 0, 0, errors.New("length mismatch")
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, errors.New("power-law fit needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, intercept, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, err
	}
	return slope, math.Exp(intercept), nil
}
