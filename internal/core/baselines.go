package core

import (
	"fmt"
	"math"
	"math/rand"

	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// coin is a randomized process's private stream: the *rand.Rand that
// NewProcess was given, or the rng.SplitMix64 value that NewProcessRNG was
// (value set). Both give the same Float64 sequence for the same stream.
type coin struct {
	r     *rand.Rand
	src   rng.SplitMix64
	value bool
}

// valueCoin returns the coin that draws from src.
func valueCoin(src rng.SplitMix64) coin { return coin{src: src, value: true} }

// Float64 draws the next number in [0, 1).
func (c *coin) Float64() float64 {
	if c.value {
		return c.src.Float64()
	}
	return c.r.Float64()
}

// RoundRobin is the deterministic baseline: once a process holds the
// message it transmits exactly in the rounds congruent to its identifier
// modulo n. In any round exactly one process is scheduled, so every holder
// is isolated once every n rounds. Round robin broadcasts in O(n·D) rounds
// in any dual graph of source eccentricity D and in O(n) rounds in
// constant-diameter networks — matching the Theorem 2 lower bound and the
// classical O(n) bound of Table 1 (it is also the paper's remark after
// Theorem 4).
type RoundRobin struct{}

var _ sim.Algorithm = (*RoundRobin)(nil)

// NewRoundRobin returns the round-robin algorithm.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements sim.Algorithm.
func (RoundRobin) Name() string { return "round-robin" }

// NewProcess implements sim.Algorithm; round robin is deterministic and
// ignores rng.
func (RoundRobin) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &roundRobinProc{id: id, n: n}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm; it ignores src.
func (a RoundRobin) NewProcessRNG(id, n int, _ rng.SplitMix64) sim.Process {
	return a.NewProcess(id, n, nil)
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (RoundRobin) HoldersIgnoreReceptions() bool { return true }

type roundRobinProc struct {
	id, n int
	has   bool
}

var (
	_ sim.Process     = (*roundRobinProc)(nil)
	_ sim.SendPlanner = (*roundRobinProc)(nil)
)

func (p *roundRobinProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *roundRobinProc) Decide(round int) bool {
	return p.has && (round-1)%p.n == p.id-1
}

// NextSend implements sim.SendPlanner: the next round congruent to the id.
func (p *roundRobinProc) NextSend(round int) int {
	if !p.has {
		return math.MaxInt
	}
	return round + ((p.id-round)%p.n+p.n)%p.n
}

func (p *roundRobinProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}

// Decay is the classical randomized broadcast protocol of Bar-Yehuda,
// Goldreich and Itai, used here as the classical-model baseline of Table 2.
// Rounds are grouped into globally aligned phases of ceil(log2 n)+1 rounds;
// a holder transmits in the j-th round of each phase with probability 2^-j
// (j = 0, 1, ...), sweeping through all densities of contending neighbours.
type Decay struct{}

var _ sim.Algorithm = (*Decay)(nil)

// NewDecay returns the decay algorithm.
func NewDecay() *Decay { return &Decay{} }

// Name implements sim.Algorithm.
func (Decay) Name() string { return "decay" }

// NewProcess implements sim.Algorithm.
func (Decay) NewProcess(id, n int, r *rand.Rand) sim.Process {
	return &decayProc{phaseLen: decayPhase(n), coin: coin{r: r}}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm.
func (Decay) NewProcessRNG(id, n int, src rng.SplitMix64) sim.Process {
	return &decayProc{phaseLen: decayPhase(n), coin: valueCoin(src)}
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (Decay) HoldersIgnoreReceptions() bool { return true }

// decayPhase returns the phase length ceil(log2 n)+1, at least 1.
func decayPhase(n int) int {
	return max(1, int(math.Ceil(math.Log2(float64(n))))+1)
}

type decayProc struct {
	phaseLen int
	coin     coin
	has      bool
}

var _ sim.Process = (*decayProc)(nil)

func (p *decayProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *decayProc) Decide(round int) bool {
	if !p.has {
		return false
	}
	return p.coin.Float64() < decayProb[(round-1)%p.phaseLen]
}

// decayProb[j] is Decay's send probability 2^-j in round j of a phase. The
// powers are exact, so the table holds what math.Pow would return, and it
// covers every phase length: ceil(log2 n)+1 ≤ 64 for any int n.
var decayProb = func() (t [64]float64) {
	for j := range t {
		t[j] = math.Ldexp(1, -j)
	}
	return t
}()

func (p *decayProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}

// Uniform is the simplest randomized baseline: every holder transmits each
// round with a fixed probability p.
type Uniform struct {
	// P is the per-round transmission probability.
	P float64
}

var _ sim.Algorithm = (*Uniform)(nil)

// NewUniform validates p and returns the uniform algorithm.
func NewUniform(p float64) (*Uniform, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("uniform needs p in (0,1], got %v", p)
	}
	return &Uniform{P: p}, nil
}

// Name implements sim.Algorithm.
func (a *Uniform) Name() string { return fmt.Sprintf("uniform(p=%.3f)", a.P) }

// NewProcess implements sim.Algorithm.
func (a *Uniform) NewProcess(id, n int, r *rand.Rand) sim.Process {
	return &uniformProc{p: a.P, coin: coin{r: r}}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm.
func (a *Uniform) NewProcessRNG(id, n int, src rng.SplitMix64) sim.Process {
	return &uniformProc{p: a.P, coin: valueCoin(src)}
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (a *Uniform) HoldersIgnoreReceptions() bool { return true }

type uniformProc struct {
	p    float64
	coin coin
	has  bool
}

var _ sim.Process = (*uniformProc)(nil)

func (p *uniformProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *uniformProc) Decide(_ int) bool {
	return p.has && p.coin.Float64() < p.p
}

func (p *uniformProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}
