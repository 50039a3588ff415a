package core

import (
	"fmt"
	"math"
	"math/rand"

	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// Harmonic is the randomized Harmonic Broadcast algorithm of Section 7.
// After first receiving the message in round t_v, a node transmits in every
// round t > t_v with probability
//
//	p_v(t) = 1 / (1 + floor((t - t_v - 1) / T)),
//
// i.e. with probability 1 for T rounds, then 1/2 for T rounds, then 1/3, and
// so on. With T = ceil(12 ln(n/ε)) broadcast completes within
// 2·n·T·H(n) = O(n log² n) rounds with probability at least 1-ε
// (Theorems 18 and 19).
type Harmonic struct {
	// T is the number of rounds each probability level is held for.
	T int
}

var _ sim.Algorithm = (*Harmonic)(nil)

// NewHarmonic builds the algorithm with an explicit T >= 1.
func NewHarmonic(t int) (*Harmonic, error) {
	if t < 1 {
		return nil, fmt.Errorf("harmonic needs T >= 1, got %d", t)
	}
	return &Harmonic{T: t}, nil
}

// NewHarmonicForN builds the algorithm with the paper's parameter choice
// T = ceil(12 ln(n/epsilon)) for failure probability epsilon.
func NewHarmonicForN(n int, epsilon float64) (*Harmonic, error) {
	if n < 2 {
		return nil, fmt.Errorf("harmonic needs n >= 2, got %d", n)
	}
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("epsilon %v outside (0,1)", epsilon)
	}
	return NewHarmonic(HarmonicT(n, epsilon))
}

// HarmonicT returns the paper's T = ceil(12 ln(n/epsilon)).
func HarmonicT(n int, epsilon float64) int {
	return int(math.Ceil(12 * math.Log(float64(n)/epsilon)))
}

// Name implements sim.Algorithm.
func (a *Harmonic) Name() string { return fmt.Sprintf("harmonic(T=%d)", a.T) }

// NewProcess implements sim.Algorithm.
func (a *Harmonic) NewProcess(id, n int, r *rand.Rand) sim.Process {
	return &harmonicProc{t: a.T, coin: seqCoin(r)}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm.
func (a *Harmonic) NewProcessRNG(id, n int, src rng.SplitMix64) sim.Process {
	return &harmonicProc{t: a.T, coin: valueCoin(src)}
}

// HoldersIgnoreReceptions implements sim.DeafHolders: t_v is fixed at the
// first reception of the message.
func (a *Harmonic) HoldersIgnoreReceptions() bool { return true }

// harmonicProc's coin.wake is t_v.
type harmonicProc struct {
	coin
	t int

	// p_v(t) is constant within a level of T rounds, so it is computed once
	// per level: prob is its value for the rounds before levelEnd, and
	// bound the same as an Int63 bound, for NextSend.
	prob     float64
	bound    uint64
	levelEnd int
}

var (
	_ sim.Process     = (*harmonicProc)(nil)
	_ sim.SendPlanner = (*harmonicProc)(nil)
)

func (p *harmonicProc) Decide(round int) bool {
	if !p.holds(round) {
		return false
	}
	p.level(round)
	return p.draw(round) < p.prob
}

// NextSend implements sim.SendPlanner: a value coin reads ahead level by
// level, each at its probability.
func (p *harmonicProc) NextSend(round int) int {
	t, scan := p.first(round)
	if !scan {
		return t
	}
	for limit := t + scanRounds; t < limit; {
		p.level(t)
		end := min(p.levelEnd, limit)
		if t = p.nextBelow(t, end, p.bound); t < end {
			return t
		}
	}
	return t
}

// level sets prob, bound and levelEnd for the level of round t. Rounds
// only move forward, so a cache whose levelEnd is past t holds t's level
// already.
func (p *harmonicProc) level(t int) {
	if t >= p.levelEnd {
		p.prob = SendProbability(t, p.wake, p.t)
		p.bound = rng.Int63Below(p.prob)
		p.levelEnd = t + p.t - (t-p.wake-1)%p.t
	}
}

// SendProbability returns p_v(t) for a node that first received the message
// in round tv, with level length T: 1/(1 + floor((t-tv-1)/T)) for t > tv and
// 0 otherwise.
func SendProbability(t, tv, T int) float64 {
	if t <= tv {
		return 0
	}
	return 1 / float64(1+(t-tv-1)/T)
}

// SumProbabilities returns P(t), the sum over a wake-up pattern (the sorted
// rounds t_1 <= ... <= t_n at which nodes receive the message) of the
// per-node transmission probabilities in round t (Section 7, equation (2)).
func SumProbabilities(pattern []int, t, T int) float64 {
	sum := 0.0
	for _, tv := range pattern {
		sum += SendProbability(t, tv, T)
	}
	return sum
}

// BusyRounds counts the busy rounds (P(t) >= 1) induced by a wake-up pattern
// within rounds 1..horizon. Lemma 15 proves this is at most n·T·H(n) for any
// pattern.
func BusyRounds(pattern []int, T, horizon int) int {
	busy := 0
	for t := 1; t <= horizon; t++ {
		if SumProbabilities(pattern, t, T) >= 1 {
			busy++
		}
	}
	return busy
}

// FrontLoadedPattern returns the wake-up pattern in which node i wakes as
// early as possible subject to waking one node per round: 0, 1, 2, ..., n-1.
// Lemma 14 shows a busy-round-maximizing pattern has all its busy rounds
// first; this pattern is the natural adversarial candidate.
func FrontLoadedPattern(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// SimultaneousPattern returns the pattern in which all nodes wake in round
// 0; the probability sum then decays like n/(1+t/T).
func SimultaneousPattern(n int) []int {
	return make([]int, n)
}
