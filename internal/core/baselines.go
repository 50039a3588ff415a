package core

import (
	"fmt"
	"math"
	"math/rand"

	"dualgraph/internal/sim"
)

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

type roundRobinProc struct {
	id, n int
	has   bool
}

var _ sim.Process = (*roundRobinProc)(nil)

func (p *roundRobinProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *roundRobinProc) Decide(round int) bool {
	return p.has && (round-1)%p.n == p.id-1
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
func (Decay) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	phase := int(math.Ceil(math.Log2(float64(n)))) + 1
	if phase < 1 {
		phase = 1
	}
	return &decayProc{phaseLen: phase, rng: rng}
}

type decayProc struct {
	phaseLen int
	rng      *rand.Rand
	has      bool
}

var _ sim.Process = (*decayProc)(nil)

func (p *decayProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *decayProc) Decide(round int) bool {
	if !p.has {
		return false
	}
	return p.rng.Float64() < decayProb[(round-1)%p.phaseLen]
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
func (a *Uniform) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	return &uniformProc{p: a.P, rng: rng}
}

type uniformProc struct {
	p   float64
	rng *rand.Rand
	has bool
}

var _ sim.Process = (*uniformProc)(nil)

func (p *uniformProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *uniformProc) Decide(_ int) bool {
	return p.has && p.rng.Float64() < p.p
}

func (p *uniformProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}
