package core

import (
	"fmt"
	"math"
	"math/rand"

	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// coin is a randomized process's private stream, together with wake, the
// round the process first held the message: its draws begin in round
// wake+1, one per round. A sequential coin is the *rand.Rand NewProcess was
// given, and it draws the next number in each round it is asked. A value
// coin is the rng.SplitMix64 NewProcessRNG was given, untouched until wake,
// and it reads round t's number straight off the stream: the (t-wake)-th
// next draw, a pure function of the stream state and t - wake. So it can
// look ahead at any later round's number without drawing it, and both
// coins give the same number in every round.
//
// A number that rounds to 1 is drawn again, as rng.SplitMix64.Float64 and
// rand.Rand.Float64 do, which moves every later round one draw on. The
// value coin skips its state one draw at that point, so the look-ahead
// stops there (see mayAt) and the round's Decide is always called.
//
// coin implements the Start and Receive of the randomized processes: the
// message is the only thing they listen for.
type coin struct {
	r    *rand.Rand     // the sequential coin; nil for a value coin
	src  rng.SplitMix64 // the value coin's state at wake, one draw on per redraw
	wake int            // the round the process first held the message; -1 if none
}

// scanRounds bounds a value coin's look-ahead in NextSend: when no round of
// the window is a send, NextSend names the first round past it, and the
// Decide there plans again.
const scanRounds = 256

func seqCoin(r *rand.Rand) coin { return coin{r: r, wake: -1} }

func valueCoin(src rng.SplitMix64) coin { return coin{src: src, wake: -1} }

// Start implements sim.Process. The source receives the message from the
// environment before round 1; the paper sets t_s = 0, so it draws from
// round 1 on.
func (c *coin) Start(_ int, hasMessage bool) {
	if hasMessage {
		c.wake = 0
	}
}

// Receive implements sim.Process: wake is fixed at the first reception of
// the message.
func (c *coin) Receive(round int, r sim.Reception) {
	if c.wake < 0 && r.Kind == sim.Delivered && r.Broadcast {
		c.wake = round
	}
}

// holds reports whether the process decides by a draw in round t: it held
// the message before t.
func (c *coin) holds(t int) bool { return c.wake >= 0 && t > c.wake }

// draw returns the process's number in [0, 1) for round t, which holds.
func (c *coin) draw(t int) float64 {
	if c.r != nil {
		return c.r.Float64()
	}
	for {
		if f, ok := c.src.Float64Ahead(uint64(t - c.wake)); ok {
			return f
		}
		c.src.Skip()
	}
}

// first returns the first round at or after r in which the process draws,
// and whether NextSend can read the rounds from there on: not for a
// non-holder, which never sends (first is math.MaxInt), and not for a
// sequential coin, which knows no number before drawing it (first may
// send).
func (c *coin) first(r int) (t int, scan bool) {
	if c.wake < 0 {
		return math.MaxInt, false
	}
	return max(r, c.wake+1), c.r == nil
}

// mayAt reports whether the value coin may send in round t, where thr is
// the round's probability as an Int63 bound (rng.Int63Below): its number is
// below the probability, or it rounds to 1 and the round's Decide redraws,
// so the rounds past t are not known yet. With probability 1 it always may.
func (c *coin) mayAt(t int, thr uint64) bool {
	if thr == rng.RoundsToOne {
		return true
	}
	m := c.src.Int63Ahead(uint64(t - c.wake))
	return m < thr || m >= rng.RoundsToOne
}

// nextBelow returns the first round of the value coin in [from, to) in
// which it may send under the Int63 bound thr, or to when there is none.
func (c *coin) nextBelow(from, to int, thr uint64) int {
	t := from
	for t < to && !c.mayAt(t, thr) {
		t++
	}
	return t
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
	return &decayProc{phaseLen: decayPhase(n), coin: seqCoin(r)}
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
	coin
	phaseLen int
}

var (
	_ sim.Process     = (*decayProc)(nil)
	_ sim.SendPlanner = (*decayProc)(nil)
)

func (p *decayProc) Decide(round int) bool {
	return p.holds(round) && p.draw(round) < decayProb[(round-1)%p.phaseLen]
}

// NextSend implements sim.SendPlanner. A phase opens with probability 1,
// so a value coin's look-ahead ends within one phase.
func (p *decayProc) NextSend(round int) int {
	t, scan := p.first(round)
	if !scan {
		return t
	}
	for j := (t - 1) % p.phaseLen; !p.mayAt(t, decayBound[j]); t++ {
		if j++; j == p.phaseLen {
			j = 0
		}
	}
	return t
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

// decayBound[j] is decayProb[j] as an Int63 bound, for NextSend.
var decayBound = func() (t [64]uint64) {
	for j, p := range decayProb {
		t[j] = rng.Int63Below(p)
	}
	return t
}()

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
	return &uniformProc{p: a.P, coin: seqCoin(r)}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm.
func (a *Uniform) NewProcessRNG(id, n int, src rng.SplitMix64) sim.Process {
	return &uniformProc{p: a.P, bound: rng.Int63Below(a.P), coin: valueCoin(src)}
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (a *Uniform) HoldersIgnoreReceptions() bool { return true }

type uniformProc struct {
	coin
	p     float64
	bound uint64 // p as an Int63 bound, for a value coin's NextSend
}

var (
	_ sim.Process     = (*uniformProc)(nil)
	_ sim.SendPlanner = (*uniformProc)(nil)
)

func (p *uniformProc) Decide(round int) bool {
	return p.holds(round) && p.draw(round) < p.p
}

// NextSend implements sim.SendPlanner.
func (p *uniformProc) NextSend(round int) int {
	t, scan := p.first(round)
	if !scan {
		return t
	}
	return p.nextBelow(t, t+scanRounds, p.bound)
}
