package repeat

import (
	"fmt"
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestSingleMessageMatchesSim is the differential check of repeated
// broadcast against the single-message simulator: with one message, a
// protocol in which only holders send must play exactly the sim.Run
// execution of the matching algorithm under GreedyCollider, CR4 and async
// start with the same seed.
func TestSingleMessageMatchesSim(t *testing.T) {
	for _, n := range []int{5, 8, 16, 24} {
		maxRounds := 40 * n * n
		harmonic, err := core.NewHarmonicForN(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewSequential(maxRounds+1, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := NewPipelined(false, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipeH, err := NewPipelined(true, harmonic.T)
		if err != nil {
			t.Fatal(err)
		}
		pairs := []struct {
			p   Protocol
			alg sim.Algorithm
		}{
			{seq, core.NewRoundRobin()},
			{pipe, core.NewRoundRobin()},
			{pipeH, harmonic},
		}
		for seed := int64(1); seed <= 20; seed++ {
			d, err := graph.RandomDual(n, 0.15, 0.3, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range pairs {
				name := fmt.Sprintf("n=%d/seed=%d/%s", n, seed, pair.p.Name())
				want, err := sim.Run(d, pair.alg, adversary.GreedyCollider{}, sim.Config{
					Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: maxRounds, Seed: seed,
				})
				if err != nil {
					t.Fatalf("%s: sim: %v", name, err)
				}
				got, err := Run(d, pair.p, Config{Messages: 1, MaxRounds: maxRounds, Seed: seed})
				if err != nil {
					t.Fatalf("%s: repeat: %v", name, err)
				}
				if got.Completed != want.Completed || got.Rounds != want.Rounds || got.Transmissions != want.Transmissions {
					t.Fatalf("%s: repeat (completed %v, rounds %d, transmissions %d), sim (completed %v, rounds %d, transmissions %d)",
						name, got.Completed, got.Rounds, got.Transmissions, want.Completed, want.Rounds, want.Transmissions)
				}
				if got.Completed && got.PerMessage[0] != got.Rounds {
					t.Fatalf("%s: PerMessage[0] = %d, want the completion round %d", name, got.PerMessage[0], got.Rounds)
				}
			}
		}
	}
}
