package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

func TestSendProbabilitySchedule(t *testing.T) {
	T := 3
	// tv = 0: rounds 1..3 -> 1, rounds 4..6 -> 1/2, rounds 7..9 -> 1/3.
	cases := []struct {
		t    int
		want float64
	}{{1, 1}, {2, 1}, {3, 1}, {4, 0.5}, {6, 0.5}, {7, 1.0 / 3}, {9, 1.0 / 3}, {10, 0.25}}
	for _, c := range cases {
		if got := SendProbability(c.t, 0, T); got != c.want {
			t.Errorf("p(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	// t <= tv: probability 0.
	if SendProbability(5, 5, T) != 0 || SendProbability(4, 5, T) != 0 {
		t.Error("probability before wake must be 0")
	}
}

func TestSendProbabilityNonIncreasing(t *testing.T) {
	f := func(tvRaw, tRaw uint8, TRaw uint8) bool {
		T := 1 + int(TRaw%20)
		tv := int(tvRaw % 50)
		tt := tv + 1 + int(tRaw%100)
		return SendProbability(tt+1, tv, T) <= SendProbability(tt, tv, T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicTMatchesPaper(t *testing.T) {
	// T = ceil(12 ln(n/eps)).
	if got, want := HarmonicT(100, 0.01), int(math.Ceil(12*math.Log(10000))); got != want {
		t.Fatalf("HarmonicT = %d, want %d", got, want)
	}
}

func TestNewHarmonicValidation(t *testing.T) {
	if _, err := NewHarmonic(0); err == nil {
		t.Fatal("expected error for T=0")
	}
	if _, err := NewHarmonicForN(1, 0.1); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := NewHarmonicForN(10, 0); err == nil {
		t.Fatal("expected error for epsilon=0")
	}
	if _, err := NewHarmonicForN(10, 1); err == nil {
		t.Fatal("expected error for epsilon=1")
	}
}

func TestHarmonicSourceTransmitsRound1(t *testing.T) {
	a, err := NewHarmonic(5)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewProcess(1, 8, rand.New(rand.NewSource(1)))
	p.Start(1, true)
	// p(1) = 1: the source must transmit in round 1 with certainty.
	if !p.Decide(1) {
		t.Fatal("source must transmit in round 1 (probability 1)")
	}
}

func TestHarmonicNonHolderSilent(t *testing.T) {
	a, err := NewHarmonic(2)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewProcess(2, 8, rand.New(rand.NewSource(1)))
	p.Start(3, false)
	for r := 3; r < 50; r++ {
		if p.Decide(r) {
			t.Fatal("non-holder transmitted")
		}
	}
	p.Receive(50, sim.Reception{Kind: sim.Delivered, Broadcast: true})
	// Next T rounds: probability 1.
	if !p.Decide(51) {
		t.Fatal("fresh holder must transmit with probability 1")
	}
}

func TestHarmonicIgnoresNonBroadcastReceptions(t *testing.T) {
	a, err := NewHarmonic(2)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewProcess(2, 8, rand.New(rand.NewSource(1)))
	p.Start(1, false)
	p.Receive(1, sim.Reception{Kind: sim.Collision})
	p.Receive(2, sim.Reception{Kind: sim.Delivered, Broadcast: false, FromProc: 3})
	if p.Decide(3) {
		t.Fatal("process without the broadcast payload transmitted")
	}
}

func harmonicBound(n, T int) int {
	// Theorem 18: all nodes receive by 2·n·T·H(n) w.p. >= 1-eps.
	return int(2*float64(n*T)*stats.HarmonicNumber(n)) + 1
}

func TestHarmonicCompletesOnDualGraphsWHP(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	topos := map[string]*graph.Dual{}
	d, err := graph.CliqueBridge(33)
	if err != nil {
		t.Fatal(err)
	}
	topos["clique-bridge"] = d
	d, err = graph.CompleteLayered(33)
	if err != nil {
		t.Fatal(err)
	}
	topos["complete-layered"] = d
	d, err = graph.RandomDual(40, 0.1, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	topos["random"] = d

	for name, dd := range topos {
		t.Run(name, func(t *testing.T) {
			n := dd.N()
			alg, err := NewHarmonicForN(n, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(dd, alg, adversary.GreedyCollider{}, sim.Config{
				Rule:      sim.CR4,
				Start:     sim.AsyncStart,
				MaxRounds: harmonicBound(n, alg.T),
				Seed:      4242,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("harmonic did not complete within the Theorem 18 bound %d", harmonicBound(n, alg.T))
			}
		})
	}
}

func TestBusyRoundsWithinLemma15Bound(t *testing.T) {
	// Lemma 15: busy rounds <= n·T·H(n) for every wake-up pattern.
	f := func(seed int64, nRaw, TRaw uint8) bool {
		n := 2 + int(nRaw%20)
		T := 1 + int(TRaw%5)
		rng := rand.New(rand.NewSource(seed))
		pattern := make([]int, n)
		for i := 1; i < n; i++ {
			pattern[i] = pattern[i-1] + rng.Intn(3)
		}
		bound := int(float64(n*T)*stats.HarmonicNumber(n)) + 1
		horizon := pattern[n-1] + 4*bound
		return BusyRounds(pattern, T, horizon) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyRoundsFrontLoadedPattern(t *testing.T) {
	n, T := 16, 3
	pattern := FrontLoadedPattern(n)
	bound := int(float64(n*T)*stats.HarmonicNumber(n)) + 1
	busy := BusyRounds(pattern, T, 4*bound)
	if busy > bound {
		t.Fatalf("busy rounds %d exceed Lemma 15 bound %d", busy, bound)
	}
	if busy == 0 {
		t.Fatal("front-loaded pattern must have busy rounds")
	}
}

func TestSimultaneousPattern(t *testing.T) {
	n, T := 8, 2
	p := SimultaneousPattern(n)
	// In round 1 all n nodes transmit with probability 1: P(1) = n.
	if got := SumProbabilities(p, 1, T); got != float64(n) {
		t.Fatalf("P(1) = %v, want %d", got, n)
	}
	// Eventually the sum drops below 1 and stays there.
	if got := SumProbabilities(p, 10*n*T, T); got >= 1 {
		t.Fatalf("P(late) = %v, want < 1", got)
	}
}

// TestHarmonicCachedProbabilityIsSendProbability: the per-level cache holds,
// in every round a holder decides, the very float SendProbability returns,
// for several level lengths and wake rounds.
func TestHarmonicCachedProbabilityIsSendProbability(t *testing.T) {
	for _, T := range []int{1, 2, 7, 60} {
		for _, wake := range []int{0, 1, 5, 123} {
			a, err := NewHarmonic(T)
			if err != nil {
				t.Fatal(err)
			}
			p := a.NewProcess(1, 8, rand.New(rand.NewSource(1))).(*harmonicProc)
			p.Start(1, wake == 0)
			if wake > 0 {
				p.Receive(wake, sim.Reception{Kind: sim.Delivered, Broadcast: true})
			}
			for r := wake + 1; r <= wake+12*T+3; r++ {
				p.Decide(r)
				if want := SendProbability(r, wake, T); math.Float64bits(p.prob) != math.Float64bits(want) {
					t.Fatalf("T=%d wake=%d round %d: cached p = %v, SendProbability = %v", T, wake, r, p.prob, want)
				}
			}
		}
	}
}
