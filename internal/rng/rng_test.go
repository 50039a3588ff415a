package rng_test

import (
	"math/rand"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/rng"
)

var _ rand.Source64 = (*rng.SplitMix64)(nil)

// TestSplitMix64KnownAnswer pins the generator to the reference SplitMix64
// sequence for seed 0.
func TestSplitMix64KnownAnswer(t *testing.T) {
	g := rng.NewSplitMix64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := g.Uint64(); got != want {
			t.Fatalf("output %d = %#016x, want %#016x", i, got, want)
		}
	}
	g.Seed(0)
	if got, want := g.Int63(), int64(0xe220a8397b1dcdaf>>1); got != want {
		t.Fatalf("Int63 after Seed(0) = %#x, want %#x", got, want)
	}
}

// TestMix64CallersKnownAnswers pins the seed derivations that route through
// Mix64 to the values they produced when each carried its own copy of the
// finalizer: trial seeds and epoch seeds must not move.
func TestMix64CallersKnownAnswers(t *testing.T) {
	seedFor := []int64{-7541218347953203506, -4627371582388691390, -7459160825568275665, -4327252827158612380}
	for i, want := range seedFor {
		if got := engine.SeedFor(2, i); got != want {
			t.Errorf("SeedFor(2, %d) = %d, want %d", i, got, want)
		}
	}
	epochSeed := []int64{-8417321490838797733, -3823036493509249245, -3499449543155421580, 1965885208779290899}
	for e, want := range epochSeed {
		if got := graph.EpochSeed(7, e); got != want {
			t.Errorf("EpochSeed(7, %d) = %d, want %d", e, got, want)
		}
	}
}

// TestStreamsPairwiseDistinct checks that the streams a run draws from —
// k = 0..n+1 — never overlap each other or the streams of an adjacent seed
// within their first 1000 draws.
func TestStreamsPairwiseDistinct(t *testing.T) {
	const (
		n     = 64
		draws = 1000
	)
	for _, seed := range []int64{0, 1, -1, engine.SeedFor(2, 0)} {
		seen := make(map[uint64]struct{}, 2*(n+2)*draws)
		for _, s := range []int64{seed, seed + 1} {
			for k := uint64(0); k <= n+1; k++ {
				g := rng.Stream(s, k)
				for i := 0; i < draws; i++ {
					x := g.Uint64()
					if _, dup := seen[x]; dup {
						t.Fatalf("seeds %d/%d: stream (%d, %d) repeats an output at draw %d", seed, seed+1, s, k, i)
					}
					seen[x] = struct{}{}
				}
			}
		}
	}
}

// TestStreamIndices pins the stream layout of a run: assignment, adversary,
// then one stream per pid.
func TestStreamIndices(t *testing.T) {
	if rng.AssignStream != 0 || rng.AdversaryStream != 1 || rng.ProcStream(1) != 2 || rng.ProcStream(9) != 10 {
		t.Fatal("stream layout changed: want assign=0, adversary=1, proc pid=1+pid")
	}
	a, b := rng.Stream(5, rng.ProcStream(3)), rng.Stream(5, rng.ProcStream(3))
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Stream is not a pure function of (seed, k)")
		}
	}
}

// chiSquare returns Pearson's statistic of counts against a uniform
// expectation.
func chiSquare(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	var x float64
	for _, c := range counts {
		d := float64(c) - exp
		x += d * d / exp
	}
	return x
}

// TestStreamUniformity is a chi-square bucket test of the two draws the
// algorithms and adversaries make most, Float64 and Intn, at α = 0.001.
func TestStreamUniformity(t *testing.T) {
	const samples = 200_000
	r := rng.Stream(42, rng.ProcStream(1))

	// 64 buckets, 63 degrees of freedom: critical value 103.44 at α = 0.001.
	floats := make([]int, 64)
	for i := 0; i < samples; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		floats[int(f*64)]++
	}
	if x := chiSquare(floats, samples); x > 103.44 {
		t.Errorf("Float64: chi-square %.1f over 64 buckets exceeds 103.44 (α = 0.001)", x)
	}

	// Intn(10), 9 degrees of freedom: critical value 27.88 at α = 0.001.
	// Intn(48) exercises the rejection path of a non-power-of-two bound:
	// 47 degrees of freedom, critical value 82.72.
	for _, c := range []struct {
		n    int
		crit float64
	}{{10, 27.88}, {48, 82.72}} {
		counts := make([]int, c.n)
		for i := 0; i < samples; i++ {
			counts[r.Intn(c.n)]++
		}
		if x := chiSquare(counts, samples); x > c.crit {
			t.Errorf("Intn(%d): chi-square %.1f exceeds %.2f (α = 0.001)", c.n, x, c.crit)
		}
	}
}
