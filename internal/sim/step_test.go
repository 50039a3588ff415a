package sim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// runToCap plays every round up to cfg.MaxRounds, stepping past completion.
func runToCap(sched graph.Schedule, alg sim.Algorithm, adv sim.Adversary, cfg sim.Config) (*sim.Result, error) {
	ex, err := sim.Start(sched, alg, adv, cfg)
	if err != nil {
		return nil, err
	}
	for ex.Round() < cfg.MaxRounds {
		if _, err := ex.Step(); err != nil {
			return nil, err
		}
	}
	return ex.Result(), nil
}

// transcript steps a run to done and returns its Result with every played
// round's senders.
func transcript(sched graph.Schedule, alg sim.Algorithm, adv sim.Adversary, cfg sim.Config) (*sim.Result, [][]graph.NodeID, error) {
	ex, err := sim.Start(sched, alg, adv, cfg)
	if err != nil {
		return nil, nil, err
	}
	var senders [][]graph.NodeID
	for done := false; !done; {
		if done, err = ex.Step(); err != nil {
			return nil, nil, err
		}
		senders = append(senders, slices.Clone(ex.Senders()))
	}
	return ex.Result(), senders, nil
}

// decideLog wraps an algorithm and records, per round, the pids whose
// Decide returned true: the ground truth Execution.Senders must report.
type decideLog struct {
	sim.Algorithm
	sent *[]int
}

func (a decideLog) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	return loggedProc{a.Algorithm.NewProcess(id, n, rng), id, a.sent}
}

type loggedProc struct {
	sim.Process
	pid  int
	sent *[]int
}

func (p loggedProc) Decide(round int) bool {
	ok := p.Process.Decide(round)
	if ok {
		*p.sent = append(*p.sent, p.pid)
	}
	return ok
}

// TestSteppedRunEqualsRunDynamic is the strong-equivalence check of the
// stepped run: on random small duals under every collision rule, both
// start rules, static/churn/waypoint schedules and the greedy, random and
// benign adversaries, Start plus Step to done gives RunDynamic's Result
// exactly; Senders is, every round, the nodes whose Decide returned true,
// ascending; and stepping past completion changes no completion field.
func TestSteppedRunEqualsRunDynamic(t *testing.T) {
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	for i := 0; i < 72; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 5 + rng.Intn(12)
		d, err := graph.RandomDual(n, 0.2, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched graph.Schedule = graph.Static(d)
		switch i % 3 {
		case 1:
			sched, err = graph.NewChurn(d, 1+rng.Intn(4), 0.3)
		case 2:
			sched, err = graph.NewWaypoint(d, 1+rng.Intn(4), 2, 0.3, 0.6)
		}
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.Adversary
		switch i / 3 % 3 {
		case 0:
			adv = adversary.GreedyCollider{}
		case 1:
			adv, err = adversary.NewRandom(0.5)
		default:
			adv = adversary.Benign{}
		}
		if err != nil {
			t.Fatal(err)
		}
		alg, err := core.NewHarmonicForN(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Rule: rules[i%4], Start: starts[i/4%2], Seed: rng.Int63(), MaxRounds: 3000}
		name := fmt.Sprintf("case %d (%T, %T, %v, %v)", i, sched, adv, cfg.Rule, cfg.Start)

		want, err := sim.RunDynamic(sched, alg, adv, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sent []int
		ex, err := sim.Start(sched, decideLog{alg, &sent}, adv, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodeOf := make([]graph.NodeID, n+1)
		for node, pid := range ex.Result().ProcOf {
			nodeOf[pid] = graph.NodeID(node)
		}
		checkSenders := func() {
			wantSenders := make([]graph.NodeID, 0, len(sent))
			for _, pid := range sent {
				wantSenders = append(wantSenders, nodeOf[pid])
			}
			slices.Sort(wantSenders)
			if got := ex.Senders(); !slices.Equal(got, wantSenders) {
				t.Fatalf("%s round %d: Senders() = %v, deciders %v", name, ex.Round(), got, wantSenders)
			}
			sent = sent[:0]
		}
		for done := false; !done; {
			if done, err = ex.Step(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSenders()
		}
		got := ex.Result()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stepped Result %+v, RunDynamic %+v", name, got, want)
		}
		if !got.Completed {
			continue
		}
		first, rounds := slices.Clone(got.FirstReceive), got.Rounds
		for k := 1 + rng.Intn(5); k > 0 && ex.Round() < cfg.MaxRounds; k-- {
			if _, err := ex.Step(); err != nil {
				t.Fatalf("%s: past completion: %v", name, err)
			}
			checkSenders()
		}
		if got := ex.Result(); !got.Completed || got.Rounds != rounds || !slices.Equal(got.FirstReceive, first) {
			t.Fatalf("%s: stepping past completion changed %v/%d/%v to %v/%d/%v",
				name, true, rounds, first, got.Completed, got.Rounds, got.FirstReceive)
		}
	}
}

// TestStepAtRoundCap: the round cap ends a run that has not completed, and a
// Step at the cap plays nothing: it reports done with no error and leaves
// the round, the senders and the Result as they were.
func TestStepAtRoundCap(t *testing.T) {
	d := mustLine(t, 3)
	// Only pid 1 ever transmits, so the broadcast never reaches node 2.
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true, 2: true, 3: true}}, false)
	ex, err := sim.Start(graph.Static(d), alg, adversary.Benign{}, sim.Config{
		Rule: sim.CR3, Start: sim.SyncStart, Seed: 1, MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		done, err := ex.Step()
		if err != nil || done != (r == 3) {
			t.Fatalf("round %d: Step = (%v, %v), want (%v, nil)", r, done, err, r == 3)
		}
	}
	res := *ex.Result()
	senders := slices.Clone(ex.Senders())
	for i := 0; i < 2; i++ {
		if done, err := ex.Step(); !done || err != nil {
			t.Fatalf("Step at the cap = (%v, %v), want (true, nil)", done, err)
		}
	}
	if ex.Round() != 3 || !slices.Equal(ex.Senders(), senders) || !reflect.DeepEqual(*ex.Result(), res) {
		t.Fatalf("Step at the cap played a round: round %d, senders %v, result %+v", ex.Round(), ex.Senders(), *ex.Result())
	}
	if res.Completed || res.Rounds != 3 {
		t.Fatalf("capped run: Completed %v Rounds %d, want false 3", res.Completed, res.Rounds)
	}
}

// TestStepAfterFailureRepeatsError: a failed round ends the run, and every
// later Step returns the same error without playing another round.
func TestStepAfterFailureRepeatsError(t *testing.T) {
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	ex, err := sim.Start(graph.Static(mustLine(t, 3)), alg, badDeliveryAdversary{}, sim.Config{Seed: 1, MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	done, err := ex.Step()
	if !done || !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("Step = (%v, %v), want (true, ErrBadDelivery)", done, err)
	}
	again, err2 := ex.Step()
	if !again || err2 != err || ex.Round() != 1 {
		t.Fatalf("second Step = (%v, %v) at round %d, want the same error at round 1", again, err2, ex.Round())
	}
}
