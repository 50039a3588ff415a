// Package lowerbound implements the paper's lower-bound constructions as
// executable adversary games: the Theorem 2 clique-bridge game that forces
// any deterministic algorithm to spend more than n-3 rounds in a
// 2-broadcastable network, the Theorem 4 Monte-Carlo harness bounding the
// success probability of randomized algorithms, and the Theorem 12
// candidate-set adversary that forces Ω(n log n) rounds on the complete
// layered network.
//
// The games drive deterministic algorithms (sim.Algorithm implementations
// that ignore their rng); re-running an execution from round 1 reproduces it
// exactly, which the drivers exploit to explore alternative extensions the
// way the proofs do.
package lowerbound

import (
	"fmt"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/schedule"
	"dualgraph/internal/sim"
)

// Theorem2Result reports the outcome of the Theorem 2 game for one
// algorithm.
type Theorem2Result struct {
	// N is the network size.
	N int
	// PerBridge[i] is the completion round of execution α_i in which the
	// bridge holds process id i (index valid for 2..n-1); 0 entries unused.
	PerBridge []int
	// WorstBridgePid is the bridge assignment maximizing completion time.
	WorstBridgePid int
	// ForcedRounds is the completion round under the worst assignment
	// (MaxRounds+1 if some execution never completed).
	ForcedRounds int
	// WitnessRounds is the completion round of the omniscient two-round
	// schedule, certifying that the network is 2-broadcastable.
	WitnessRounds int
}

// RunTheorem2Game plays the Theorem 2 adversary game against a deterministic
// algorithm on the n-node clique-bridge network: for every bridge process id
// i in 2..n-1 it runs the execution α_i (collision rule CR1, synchronous
// start, the proof's delivery rules) and reports the worst completion time.
// Theorem 2 guarantees ForcedRounds > n-3 for every deterministic algorithm.
func RunTheorem2Game(n int, alg sim.Algorithm, maxRounds int) (*Theorem2Result, error) {
	if n < 4 {
		return nil, fmt.Errorf("theorem 2 game needs n >= 4, got %d", n)
	}
	d, err := graph.CliqueBridge(n)
	if err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = 50*n*n + 1000
	}
	res := &Theorem2Result{N: n, PerBridge: make([]int, n)}
	for i := 2; i <= n-1; i++ {
		adv, err := adversary.NewTheorem2(n, i)
		if err != nil {
			return nil, err
		}
		run, err := sim.Run(d, alg, adv, sim.Config{
			Rule:      sim.CR1,
			Start:     sim.SyncStart,
			MaxRounds: maxRounds,
			Seed:      0,
		})
		if err != nil {
			return nil, fmt.Errorf("execution α_%d: %w", i, err)
		}
		rounds := run.Rounds
		if !run.Completed {
			rounds = maxRounds + 1
		}
		res.PerBridge[i] = rounds
		if rounds > res.ForcedRounds {
			res.ForcedRounds = rounds
			res.WorstBridgePid = i
		}
	}

	witness, err := runTheorem2Witness(d, n)
	if err != nil {
		return nil, err
	}
	res.WitnessRounds = witness
	return res, nil
}

// runTheorem2Witness plays the omniscient schedule certifying
// 2-broadcastability of the clique-bridge network: the source transmits in
// round 1 and the bridge in round 2. Theorem2 with bridge pid 2 puts pid 1 on
// the source (node 0) and pid 2 on the bridge (node 1), the identity
// assignment schedule.Alg assumes on those nodes.
func runTheorem2Witness(d *graph.Dual, n int) (int, error) {
	adv, err := adversary.NewTheorem2(n, 2)
	if err != nil {
		return 0, err
	}
	run, err := sim.Run(d, schedule.Alg(schedule.Schedule{{d.Source()}, {graph.BridgeNode}}), adv, sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		MaxRounds: 10,
	})
	if err != nil {
		return 0, fmt.Errorf("witness: %w", err)
	}
	if !run.Completed {
		return 0, fmt.Errorf("witness schedule failed to broadcast")
	}
	return run.Rounds, nil
}
