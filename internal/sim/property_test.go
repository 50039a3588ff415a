package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestMessageNeverOutrunsGPrimeDistance is the simulator's conservation law:
// the broadcast message travels at most one G' hop per round, so
// FirstReceive[v] >= dist_{G'}(source, v) in every execution, whatever the
// algorithm and adversary do.
func TestMessageNeverOutrunsGPrimeDistance(t *testing.T) {
	f := func(seed int64, algPick, advPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := graph.RandomDual(16, 0.15, 0.35, rng)
		if err != nil {
			return false
		}
		var alg sim.Algorithm
		switch algPick % 3 {
		case 0:
			alg = core.NewRoundRobin()
		case 1:
			alg, err = core.NewHarmonicForN(16, 0.1)
		default:
			alg, err = core.NewStrongSelect(16)
		}
		if err != nil {
			return false
		}
		var adv sim.Adversary
		switch advPick % 3 {
		case 0:
			adv = adversary.FullDelivery{}
		case 1:
			adv = adversary.GreedyCollider{}
		default:
			adv, err = adversary.NewRandom(0.7)
		}
		if err != nil {
			return false
		}
		res, err := sim.Run(d, alg, adv, sim.Config{Seed: seed, MaxRounds: 40000})
		if err != nil {
			return false
		}
		dist := d.GPrime().DistancesFrom(d.Source())
		for v, r := range res.FirstReceive {
			if r >= 0 && r < dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransmissionsCountedConsistently checks that the transmission counter
// equals the transcript's sender total.
func TestTransmissionsCountedConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := graph.RandomDual(20, 0.15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := transcript(graph.Static(d), alg, adversary.GreedyCollider{}, sim.Config{
		Seed: 5, MaxRounds: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, senders := range rounds {
		total += len(senders)
	}
	if total != res.Transmissions {
		t.Fatalf("transcript total %d != Transmissions %d", total, res.Transmissions)
	}
}

// TestCompletionRoundEqualsMaxFirstReceive validates the Result contract.
func TestCompletionRoundEqualsMaxFirstReceive(t *testing.T) {
	d, err := graph.BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(d, core.NewRoundRobin(), adversary.Benign{}, sim.Config{
		Rule: sim.CR3, Start: sim.SyncStart, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("must complete")
	}
	maxRecv := 0
	for _, r := range res.FirstReceive {
		if r > maxRecv {
			maxRecv = r
		}
	}
	if res.Rounds != maxRecv {
		t.Fatalf("Rounds = %d, max FirstReceive = %d", res.Rounds, maxRecv)
	}
}

// TestHoldersMonotone: once a node holds the message it holds it forever —
// re-running with increasing MaxRounds can only extend FirstReceive entries,
// never change recorded ones.
func TestHoldersMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, err := graph.RandomDual(14, 0.2, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(14, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	short, err := runToCap(graph.Static(d), alg, adversary.GreedyCollider{}, sim.Config{
		Seed: 2, MaxRounds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	long, err := runToCap(graph.Static(d), alg, adversary.GreedyCollider{}, sim.Config{
		Seed: 2, MaxRounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range short.FirstReceive {
		if r >= 0 && long.FirstReceive[v] != r {
			t.Fatalf("node %d first-receive changed from %d to %d with a longer run",
				v, r, long.FirstReceive[v])
		}
	}
}
