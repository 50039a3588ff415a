package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// unmix inverts rng.Mix64: each xorshift is undone by repeating it until
// the shifts run off the word, and each multiplication by its inverse mod
// 2^64.
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

// coinAlg is a randomized built-in: a process from a *rand.Rand or from a
// value stream.
type coinAlg interface {
	sim.Algorithm
	sim.ValueRNGAlgorithm
}

type planningProc interface {
	sim.Process
	sim.SendPlanner
}

// coinAlgs returns the randomized built-ins, with send gaps from one round
// to past the look-ahead bound.
func coinAlgs() []coinAlg {
	return []coinAlg{
		NewDecay(), &Uniform{P: 0.3}, &Uniform{P: 0.002}, &Uniform{P: 1},
		&Harmonic{T: 1}, &Harmonic{T: 3}, &Harmonic{T: 40},
	}
}

// replay runs a process on the sequential coin over state and one on the
// value coin over the same state side by side, for rounds wake+1..last.
// The sequential one decides in every round. The value one decides in
// every round too when every is set; otherwise it decides only in the
// rounds its NextSend names, and each answer must be no later than the
// sequential process's next send. It returns the first disagreement, and
// the rounds the value process decided in.
func replay(alg coinAlg, n int, state uint64, wake, last int, every bool) (decided []int, err error) {
	seq := alg.NewProcess(1, n, rand.New(rng.NewSplitMix64(state))).(planningProc)
	val := alg.NewProcessRNG(1, n, *rng.NewSplitMix64(state)).(planningProc)
	for _, p := range []planningProc{seq, val} {
		p.Start(1, wake == 0)
		if wake > 0 {
			if got := p.NextSend(1); got != math.MaxInt {
				return nil, fmt.Errorf("a process without the message plans round %d", got)
			}
			p.Receive(wake, sim.Reception{Kind: sim.Delivered, Broadcast: true})
		}
	}
	next := val.NextSend(wake + 1)
	for r := wake + 1; r <= last; r++ {
		want := seq.Decide(r)
		if !every && r < next {
			if want {
				return decided, fmt.Errorf("round %d sends, but NextSend named round %d", r, next)
			}
			continue
		}
		decided = append(decided, r)
		if got := val.Decide(r); got != want {
			return decided, fmt.Errorf("round %d: value coin decides %v, sequential coin %v", r, got, want)
		}
		next = val.NextSend(r + 1)
	}
	return decided, nil
}

// TestValueCoinRedrawsLikeSequential builds stream states whose draw for a
// chosen round rounds to 1, where Float64 draws again and moves every later
// round one draw on. Decay, Uniform and Harmonic on the value coin, with
// and without planning, must decide like the sequential coin over the
// rounds after it, and the planned process must decide in that round.
func TestValueCoinRedrawsLikeSequential(t *testing.T) {
	edge := unmix(^uint64(0)) // Mix64(edge) = 2^64-1: Int63 is 2^63-1, which rounds to 1
	if f, ok := rng.NewSplitMix64(edge - rng.Golden).Float64Ahead(1); ok {
		t.Fatalf("the edge state's draw is %v, not one that rounds to 1", f)
	}
	for _, alg := range coinAlgs() {
		for _, wake := range []int{0, 3} {
			for _, k := range []int{1, 2, 6, 7, 300} {
				// The k-th draw after wake, round wake+k's, rounds to 1.
				state := edge - uint64(k)*rng.Golden
				for _, every := range []bool{false, true} {
					name := fmt.Sprintf("%s wake %d, draw %d rounds to 1, every round %v", alg.Name(), wake, k, every)
					decided, err := replay(alg, 8, state, wake, wake+k+400, every)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Contains(decided, wake+k) {
						t.Fatalf("%s: no Decide in round %d", name, wake+k)
					}
				}
			}
		}
	}
}

// TestNextSendNeverLate: for random stream states and wake rounds,
// NextSend is never later than the sequential coin's next send, and the
// planned process decides like it in every round it is asked.
func TestNextSendNeverLate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for i := 0; i < iters; i++ {
		algs := coinAlgs()
		alg, state, wake := algs[r.Intn(len(algs))], r.Uint64(), r.Intn(50)
		n := []int{2, 8, 300}[r.Intn(3)]
		if _, err := replay(alg, n, state, wake, wake+1500, false); err != nil {
			t.Fatalf("%s n=%d state %#x wake %d: %v", alg.Name(), n, state, wake, err)
		}
	}
}
