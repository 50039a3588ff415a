// Package core implements the paper's broadcast algorithms: the
// deterministic Strong Select algorithm (Section 5, O(n^{3/2} √log n)
// rounds), the randomized Harmonic Broadcast algorithm (Section 7,
// O(n log² n) rounds w.h.p.), and the baselines they are compared against
// (round robin, the classical Decay protocol, and uniform-probability
// broadcast).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
	"dualgraph/internal/ssf"
)

// StrongSelect is the deterministic broadcast algorithm of Section 5. Rounds
// are grouped into epochs of 2^smax - 1 rounds; the first round of each
// epoch runs the smallest strongly selective family F_1, the next two rounds
// F_2, the next four F_3, and so on, so family F_s advances 2^{s-1} sets per
// epoch. A node that receives the message waits, for each s, until F_s
// cycles back to its first set and then participates in exactly one complete
// iteration of F_s, transmitting in the rounds whose set contains its id.
// Participating only once bounds the interval in which a node can interfere,
// at the cost of the amortized progress argument of Theorem 10.
type StrongSelect struct {
	n        int
	smax     int
	epochLen int
	families []ssf.Family // families[s-1] is the (n, 2^s)-SSF; the last is round robin
	planCap  int          // sends a holder plans: the sets containing id 1, over all scales
}

var _ sim.Algorithm = (*StrongSelect)(nil)

// NewStrongSelect builds the algorithm for an n-process network,
// constructing one strongly selective family per scale s = 1..smax with
// smax = log2(sqrt(n / log n)) as in the paper (at least 1), and the
// round-robin (n,n)-SSF at the top scale.
func NewStrongSelect(n int) (*StrongSelect, error) {
	if n < 2 {
		return nil, fmt.Errorf("strong select needs n >= 2, got %d", n)
	}
	smax := 1
	if n >= 4 {
		s := int(math.Floor(math.Log2(math.Sqrt(float64(n) / math.Log2(float64(n))))))
		if s > smax {
			smax = s
		}
	}
	a := &StrongSelect{
		n:        n,
		smax:     smax,
		epochLen: (1 << smax) - 1,
		families: make([]ssf.Family, smax),
	}
	for s := 1; s < smax; s++ {
		k := 1 << s
		if k > n {
			k = n
		}
		f, err := ssf.New(n, k)
		if err != nil {
			return nil, fmt.Errorf("family for s=%d: %w", s, err)
		}
		a.families[s-1] = f
	}
	rr, err := ssf.NewRoundRobin(n)
	if err != nil {
		return nil, err
	}
	a.families[smax-1] = rr
	for _, f := range a.families {
		a.planCap += len(f.AppendSets(nil, 1))
	}
	return a, nil
}

// Name implements sim.Algorithm.
func (a *StrongSelect) Name() string { return "strong-select" }

// Smax returns the number of selective-family scales (diagnostics).
func (a *StrongSelect) Smax() int { return a.smax }

// EpochLength returns the number of rounds per epoch (diagnostics).
func (a *StrongSelect) EpochLength() int { return a.epochLen }

// Family returns the (n, 2^s)-SSF used at scale s in 1..Smax (diagnostics).
func (a *StrongSelect) Family(s int) ssf.Family { return a.families[s-1] }

// Slot describes which selective family and set a given global round runs.
type Slot struct {
	// Scale is the family index s in 1..smax.
	Scale int
	// Set is the index of the family set used this round.
	Set int
	// Counter is the global number of scale-s slots before this one.
	Counter int
}

// SlotAt returns the schedule slot of the given 1-based global round.
// Within an epoch, round positions [2^{s-1}, 2^s - 1] belong to scale s.
func (a *StrongSelect) SlotAt(round int) Slot {
	epoch := (round - 1) / a.epochLen
	pos := (round-1)%a.epochLen + 1
	s := bits.Len(uint(pos)) // floor(log2 pos) + 1
	perEpoch := 1 << (s - 1)
	offset := pos - perEpoch
	counter := epoch*perEpoch + offset
	return Slot{
		Scale:   s,
		Set:     counter % a.families[s-1].Size(),
		Counter: counter,
	}
}

// roundOf returns the global round of the scale-s slot with the given
// counter: the inverse of SlotAt.
func (a *StrongSelect) roundOf(s, counter int) int {
	perEpoch := 1 << (s - 1)
	return counter/perEpoch*a.epochLen + perEpoch + counter%perEpoch
}

// firstCounter returns the counter of the first scale-s slot in round from
// or later.
func (a *StrongSelect) firstCounter(s, from int) int {
	perEpoch := 1 << (s - 1)
	epoch := (from - 1) / a.epochLen
	pos := (from-1)%a.epochLen + 1
	switch {
	case pos <= perEpoch:
		return epoch * perEpoch
	case pos < 2*perEpoch:
		return epoch*perEpoch + pos - perEpoch
	}
	return (epoch + 1) * perEpoch
}

// NewProcess implements sim.Algorithm. Strong Select is deterministic and
// ignores rng.
func (a *StrongSelect) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &strongSelectProc{alg: a, id: id}
}

// NewProcessRNG implements sim.ValueRNGAlgorithm; it ignores src.
func (a *StrongSelect) NewProcessRNG(id, n int, _ rng.SplitMix64) sim.Process {
	return a.NewProcess(id, n, nil)
}

// HoldersIgnoreReceptions implements sim.DeafHolders: a holder's sends are
// fixed once it holds the message.
func (a *StrongSelect) HoldersIgnoreReceptions() bool { return true }

// strongSelectProc plans its sends at its first Decide (or NextSend) as a
// holder, in round from: for each scale s it waits for the first scale-s
// slot at or after from whose set is 0, and then takes part in the Size()
// slots of one iteration of F_s, sending in the slots whose set contains
// its id. After that, Decide is a compare and an index advance.
type strongSelectProc struct {
	alg     *StrongSelect
	id      int
	has     bool
	planned bool
	sends   []int // the rounds of its planned sends, ascending
	next    int   // index into sends of the first send not yet made
	end     int   // the last round of its last iteration
	last    int   // the last round Decide was called for
}

var (
	_ sim.Process     = (*strongSelectProc)(nil)
	_ sim.SendPlanner = (*strongSelectProc)(nil)
)

func (p *strongSelectProc) Start(_ int, hasMessage bool) {
	if hasMessage {
		p.has = true
	}
}

// plan fixes the sends of a process that first acts as a holder in round
// from. Rounds of different scales never coincide, so sends has no repeats.
func (p *strongSelectProc) plan(from int) {
	a := p.alg
	p.sends = make([]int, 0, a.planCap)
	for s := 1; s <= a.smax; s++ {
		f := a.families[s-1]
		size := f.Size()
		start := (a.firstCounter(s, from) + size - 1) / size * size
		i := len(p.sends)
		p.sends = f.AppendSets(p.sends, p.id)
		for j := i; j < len(p.sends); j++ {
			p.sends[j] = a.roundOf(s, start+p.sends[j])
		}
		p.end = max(p.end, a.roundOf(s, start+size-1))
	}
	slices.Sort(p.sends)
	p.planned = true
}

// NextSend implements sim.SendPlanner.
func (p *strongSelectProc) NextSend(round int) int {
	if !p.has {
		return math.MaxInt
	}
	if !p.planned {
		p.plan(round)
	}
	for p.next < len(p.sends) && p.sends[p.next] < round {
		p.next++
	}
	if p.next == len(p.sends) {
		return math.MaxInt
	}
	return p.sends[p.next]
}

func (p *strongSelectProc) Decide(round int) bool {
	p.last = round
	if p.NextSend(round) != round {
		return false
	}
	p.next++
	return true
}

func (p *strongSelectProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}

// Done reports whether the process has completed all its iterations and will
// never transmit again (diagnostics and termination tests): Decide has been
// called for a round at or after the last slot of its last iteration.
func (p *strongSelectProc) Done() bool {
	return p.planned && p.last >= p.end
}
