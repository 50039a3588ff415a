package rng_test

import (
	"math"
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

// unmix inverts Mix64: each xorshift is undone by repeating it until the
// shifts run off the word, and each multiplication by its inverse mod 2^64.
func unmix(z uint64) uint64 {
	unshift := func(z uint64, k uint) uint64 {
		x := z
		for s := k; s < 64; s += k {
			x ^= z >> s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c // Newton's iteration doubles the correct low bits each step
		for range 6 {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestFloat64MatchesRandRand: a generator's Float64 returns what rand.Rand's
// Float64 returns over a copy of it, for ordinary streams and for a state
// whose next Int63 rounds to 1, which both must draw again.
func TestFloat64MatchesRandRand(t *testing.T) {
	if got := rng.Mix64(unmix(12345)); got != 12345 {
		t.Fatalf("unmix is not Mix64's inverse: Mix64(unmix(12345)) = %d", got)
	}
	// Mix64(state+Golden) = 2^64-1 makes Int63 2^63-1, which rounds to 1.
	edge := unmix(^uint64(0)) - rng.Golden
	for _, seed := range []uint64{0, 1, 0xdeadbeef, edge} {
		g := rng.NewSplitMix64(seed)
		r := rand.New(rng.NewSplitMix64(seed))
		for i := 0; i < 1000; i++ {
			if got, want := g.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %#x draw %d: Float64 = %v, rand.Rand = %v", seed, i, got, want)
			}
		}
	}
	g := rng.NewSplitMix64(edge)
	if f := g.Float64(); f >= 1 {
		t.Fatalf("Float64 at the edge state = %v, want < 1", f)
	}
	if r := rng.NewSplitMix64(edge); g.Uint64() != func() uint64 { r.Uint64(); r.Uint64(); return r.Uint64() }() {
		t.Fatal("Float64 at the edge state did not draw exactly twice")
	}
}

// TestFloat64AheadReadsLaterDraws: Float64Ahead(k) is the k-th next
// Float64 draw while no draw before it redraws, and Int63Ahead(k) the
// output it is read from, it reports the edge state's
// draw as one that rounds to 1, and Skip moves the stream one draw on.
func TestFloat64AheadReadsLaterDraws(t *testing.T) {
	golden := uint64(rng.Golden)
	edge := unmix(^uint64(0)) - 3*golden // the third draw rounds to 1
	for _, seed := range []uint64{0, 1, 0xdeadbeef, edge} {
		g, s := rng.NewSplitMix64(seed), *rng.NewSplitMix64(seed)
		for k := uint64(1); k <= 100; k++ {
			f, ok := s.Float64Ahead(k)
			if !ok {
				if seed != edge || k != 3 || f != 1 {
					t.Fatalf("seed %#x: draw %d = %v reported as rounding to 1", seed, k, f)
				}
				s.Skip() // Float64 draws again: every later draw moves one on
				f, _ = s.Float64Ahead(k)
			}
			if want := g.Float64(); f != want {
				t.Fatalf("seed %#x: Float64Ahead(%d) = %v, Float64 drew %v", seed, k, f, want)
			}
			if m := s.Int63Ahead(k); float64(m)/(1<<63) != f {
				t.Fatalf("seed %#x: Int63Ahead(%d) = %#x is not Float64Ahead's %v", seed, k, m, f)
			}
		}
	}
}

// TestInt63Below: an output is below Int63Below(p) exactly when its Float64
// number is below p, checked on both sides of the bound, for Decay's 2^-j,
// Harmonic's 1/k, probabilities next to powers of two, the numbers of
// random outputs themselves (where a bound is hit exactly), and random
// ones; RoundsToOne is the first output whose number rounds to 1.
func TestInt63Below(t *testing.T) {
	number := func(m uint64) float64 { return float64(m) / (1 << 63) }
	if number(rng.RoundsToOne) != 1 || number(rng.RoundsToOne-1) >= 1 {
		t.Fatalf("RoundsToOne %#x is not the first output that rounds to 1", uint64(rng.RoundsToOne))
	}
	ps := []float64{0, -1, 1, 2, 0.3, 0.002, 0.02}
	for j := 0; j < 64; j++ {
		p := math.Ldexp(1, -j)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	for k := 1; k <= 5000; k++ {
		ps = append(ps, 1/float64(k))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		m := r.Uint64() >> 1
		ps = append(ps, number(m), r.Float64(), math.Ldexp(r.Float64(), -r.Intn(70)))
	}
	for _, p := range ps {
		m := rng.Int63Below(p)
		if m > rng.RoundsToOne || (m < rng.RoundsToOne && number(m) < p) || (m > 0 && number(m-1) >= p) {
			t.Fatalf("Int63Below(%v) = %#x: number there %v, one below %v", p, m, number(m), number(m-1))
		}
	}
}

// TestStreamValueMatchesStream: the value form of a stream makes the same
// draws as the *rand.Rand form.
func TestStreamValueMatchesStream(t *testing.T) {
	for _, seed := range []int64{0, 7, -3} {
		for _, k := range []uint64{rng.AssignStream, rng.AdversaryStream, rng.ProcStream(1), rng.ProcStream(500)} {
			v, r := rng.StreamValue(seed, k), rng.Stream(seed, k)
			for i := 0; i < 100; i++ {
				if got, want := v.Float64(), r.Float64(); got != want {
					t.Fatalf("seed %d stream %d draw %d: %v, want %v", seed, k, i, got, want)
				}
			}
		}
	}
}
