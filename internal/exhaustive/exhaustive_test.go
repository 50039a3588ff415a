package exhaustive

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/sim"
)

// receptionSignature is the one-shot form of turn.signature: the signature
// of choice mask over edges in a round with the given senders and holders.
func receptionSignature(d *graph.Dual, rule sim.CollisionRule, senders []graph.NodeID, edges []graph.EdgeID, mask uint64, holders []bool) string {
	return string((&turn{d: d, senders: senders, edges: edges, holders: holders}).signature(rule, mask))
}

// tinyBridge returns the 5-node clique-bridge network, small enough for
// exhaustive search.
func tinyBridge(t *testing.T) *graph.Dual {
	t.Helper()
	d, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSearchClassicalNetworkHasSingleBranch(t *testing.T) {
	// No unreliable edges: the adversary has no choices, so exactly the
	// branches along one execution are explored.
	d, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(d, core.NewRoundRobin(), Config{Rule: sim.CR3, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllComplete {
		t.Fatal("round robin must complete on a line under every (trivial) adversary")
	}
	if res.WorstRounds != 3 {
		t.Fatalf("worst rounds = %d, want 3", res.WorstRounds)
	}
	if res.Branches != 4 {
		t.Fatalf("branches = %d, want 4 (one per prefix length)", res.Branches)
	}
}

func TestSearchWorstCaseAtLeastHeuristicAdversary(t *testing.T) {
	// The exhaustive worst case must dominate any fixed behaviour on the
	// same network — here the no-delivery baseline. (Domination over the
	// greedy heuristic and exact agreement with the adaptive adversary are
	// pinned in internal/adversary's cross-validation suite, which can
	// import both packages.)
	d := tinyBridge(t)
	alg := core.NewRoundRobin()

	heuristic, err := sim.Run(d, alg, &scriptedAdversary{}, sim.Config{
		Rule:  sim.CR1,
		Start: sim.SyncStart,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !heuristic.Completed {
		t.Fatal("heuristic run must complete")
	}

	res, err := Search(d, alg, Config{Rule: sim.CR1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllComplete {
		t.Fatal("round robin completes under every adversary behaviour")
	}
	if res.WorstRounds < heuristic.Rounds {
		t.Fatalf("exhaustive worst %d below heuristic adversary %d", res.WorstRounds, heuristic.Rounds)
	}
}

func TestSearchMatchesTheorem2OnTinyNetwork(t *testing.T) {
	// For round robin on clique-bridge, the Theorem 2 adversary's best
	// bridge is pid n-1 forcing n-1 rounds; the exhaustive search fixes the
	// identity assignment (bridge pid 2), under which the receiver gets the
	// message when process 2 transmits alone — round 2 at the earliest. The
	// worst case over deliveries must be at least that.
	d := tinyBridge(t)
	res, err := Search(d, core.NewRoundRobin(), Config{Rule: sim.CR1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstRounds < 2 {
		t.Fatalf("worst rounds = %d, want >= 2", res.WorstRounds)
	}
}

func TestSearchStrongSelectAllBehavioursComplete(t *testing.T) {
	d := tinyBridge(t)
	alg, err := core.NewStrongSelect(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(d, alg, Config{Rule: sim.CR1, Horizon: 60, MaxBranches: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllComplete {
		t.Fatal("strong select must complete under every adversary behaviour within the horizon")
	}
	if res.WorstRounds < 2 {
		t.Fatalf("unexpectedly fast worst case: %d", res.WorstRounds)
	}
}

func TestSearchWorstScriptReplays(t *testing.T) {
	// The returned worst delivery script, replayed, must reproduce the
	// reported completion round.
	d := tinyBridge(t)
	alg := core.NewRoundRobin()
	res, err := Search(d, alg, Config{Rule: sim.CR1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	script := make([][]graph.EdgeID, len(res.WorstDeliveries))
	for r, arcs := range res.WorstDeliveries {
		for _, arc := range arcs {
			id, ok := d.UnreliableEdgeID(arc.From, arc.To)
			if !ok {
				t.Fatalf("worst script contains non-unreliable arc (%d,%d)", arc.From, arc.To)
			}
			script[r] = append(script[r], id)
		}
	}
	run, err := sim.Run(d, alg, &scriptedAdversary{script: script}, sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		MaxRounds: 30,
		Seed:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed || run.Rounds != res.WorstRounds {
		t.Fatalf("replay gave (%v, %d), want (true, %d)", run.Completed, run.Rounds, res.WorstRounds)
	}
}

func TestSearchBudgetExceeded(t *testing.T) {
	d := tinyBridge(t)
	_, err := Search(d, core.NewRoundRobin(), Config{Rule: sim.CR1, Horizon: 30, MaxBranches: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestSearchTooManyArcs(t *testing.T) {
	// An 8-node clique-bridge has 7 unreliable arcs from clique nodes when
	// several transmit; cap at 1 to trigger the error. Use a spontaneous
	// algorithm so two clique nodes send together early.
	d, err := graph.CliqueBridge(8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Search(d, core.NewRoundRobin(), Config{Rule: sim.CR1, Horizon: 10, MaxArcsPerRound: 0})
	// MaxArcsPerRound 0 defaults to 16, so force a tiny cap instead:
	_, err = Search(d, core.NewRoundRobin(), Config{Rule: sim.CR1, Horizon: 10, MaxArcsPerRound: 1})
	if err == nil {
		// Round robin has single senders: source (node 0) has one
		// unreliable arc (to the receiver). A single arc never exceeds cap
		// 1, so no error is acceptable here; tighten with a chattier
		// algorithm below.
		t.Log("single-sender algorithm stayed under the cap; checking multi-sender")
	}
	_, err = Search(d, chatty{}, Config{Rule: sim.CR1, Horizon: 4, MaxArcsPerRound: 1})
	if !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("want ErrTooManyArcs, got %v", err)
	}
}

// chatty transmits every round from every process (even without the
// message), maximizing the deliverable arc count.
type chatty struct{}

func (chatty) Name() string { return "chatty" }

func (chatty) NewProcess(id, n int, _ *rand.Rand) sim.Process { return chattyProc{} }

type chattyProc struct{}

func (chattyProc) Start(int, bool)            {}
func (chattyProc) Decide(int) bool            { return true }
func (chattyProc) Receive(int, sim.Reception) {}

func TestSearchSignatureDeduplication(t *testing.T) {
	// On the 5-node bridge network with a single sender owning one
	// unreliable arc there are 2 raw choices per round but they differ in
	// signature, while rounds without senders have exactly one choice: the
	// branch count must stay far below the raw 2^arcs * rounds explosion.
	d := tinyBridge(t)
	res, err := Search(d, core.NewRoundRobin(), Config{Rule: sim.CR1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches > 4000 {
		t.Fatalf("deduplication ineffective: %d branches", res.Branches)
	}
}

// countingSchedule counts the Epoch calls that reach the wrapped schedule,
// per epoch index.
type countingSchedule struct {
	graph.Schedule
	calls map[int]int
}

func (c *countingSchedule) Epoch(e int, seed int64) (*graph.Dual, error) {
	c.calls[e]++
	return c.Schedule.Epoch(e, seed)
}

// TestEpochMemoBuildsEachEpochOnce: every search node replays from round 1,
// so without the game's epoch memo each replay would rebuild every epoch it
// crosses. Through the memo, one adaptive trial (Plan round after round, as
// adversary.Adaptive plays it) and one offline search each reach the
// schedule at most once per epoch index.
func TestEpochMemoBuildsEachEpochOnce(t *testing.T) {
	base, err := graph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := graph.NewWaypoint(base, 3, 4, 0.28, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	check := func(name string, cs *countingSchedule) {
		t.Helper()
		if len(cs.calls) < 3 {
			t.Errorf("%s: reached %d epochs, want a run that crosses epoch boundaries", name, len(cs.calls))
		}
		for e, n := range cs.calls {
			if n > 1 {
				t.Errorf("%s: epoch %d materialized %d times", name, e, n)
			}
		}
	}

	trial := &countingSchedule{Schedule: wp, calls: map[int]int{}}
	p, err := NewPlanner(trial, core.NewRoundRobin(), PlannerConfig{
		Rule: sim.CR1, Start: sim.AsyncStart, Seed: 60, SearchRounds: rounds, DeliverRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var script [][]graph.EdgeID
	for r := 0; r < rounds; r++ {
		choice, err := p.Plan(script)
		if err != nil {
			t.Fatal(err)
		}
		script = append(script, choice)
	}
	check("adaptive trial", trial)

	small, err := graph.NewWaypoint(tinyBridge(t), 1, 4, 0.28, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	search := &countingSchedule{Schedule: small, calls: map[int]int{}}
	if _, err := SearchSchedule(search, core.NewRoundRobin(), Config{Horizon: rounds, Seed: 60}); err != nil {
		t.Fatal(err)
	}
	check("offline search", search)
}

// TestReceptionSignatureFullWidthIDs pins that a signature entry carries the
// whole sender id: in a network of 300 nodes, a delivery from node 254 must
// not read as silence, and a delivery from sender 1 must not alias one from
// sender 257 (256 apart). Either would merge distinct choices in Search and
// distinct states in the planner's transposition table.
func TestReceptionSignatureFullWidthIDs(t *testing.T) {
	const n, target = 300, 100
	// A line, plus unreliable arcs from nodes 1 and 257 into the target.
	g := graph.NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	gp := g.Clone()
	gp.MustAddEdge(1, target)
	gp.MustAddEdge(257, target)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.EdgeID // edges[0] = 1→target, edges[1] = 257→target
	for _, from := range []graph.NodeID{1, 257} {
		for id := graph.EdgeID(0); int(id) < d.NumUnreliable(); id++ {
			if s, v := d.UnreliableEdge(id); s == from && v == target {
				edges = append(edges, id)
			}
		}
	}
	if len(edges) != 2 {
		t.Fatalf("found %d of the 2 fixture arcs", len(edges))
	}
	holders := make([]bool, n)
	senders := []graph.NodeID{1, 257}
	for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
		quiet := receptionSignature(d, rule, nil, nil, 0, holders)
		if loud := receptionSignature(d, rule, []graph.NodeID{254}, nil, 0, holders); loud == quiet {
			t.Errorf("%v: node 254 transmitting has the signature of a silent round", rule)
		}
		via1 := receptionSignature(d, rule, senders, edges, 1, holders)
		via257 := receptionSignature(d, rule, senders, edges, 2, holders)
		if via1 == via257 {
			t.Errorf("%v: delivering from 1 and from 257 into node %d share a signature", rule, target)
		}
	}
}

// TestSearchRejectsNegativeBounds: a negative bound is a caller error, not
// a search that reports nothing (Horizon) or fails on every network with an
// unreadable cap (MaxArcsPerRound). The error names the field.
func TestSearchRejectsNegativeBounds(t *testing.T) {
	d := tinyBridge(t)
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Horizon", Config{Horizon: -5}},
		{"MaxBranches", Config{MaxBranches: -1}},
		{"MaxArcsPerRound", Config{MaxArcsPerRound: -1}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			for name, search := range map[string]func() (*Result, error){
				"Search":         func() (*Result, error) { return Search(d, core.NewRoundRobin(), tc.cfg) },
				"SearchSchedule": func() (*Result, error) { return SearchSchedule(graph.Static(d), core.NewRoundRobin(), tc.cfg) },
			} {
				res, err := search()
				if err == nil || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: got (%+v, %v), want an error naming %s", name, res, err, tc.field)
				}
			}
		})
	}
	if _, err := NewPlanner(graph.Static(d), core.NewRoundRobin(), PlannerConfig{MaxArcsPerRound: -1}); err == nil {
		t.Error("NewPlanner accepted MaxArcsPerRound -1")
	}
}

// roundProbe wraps an algorithm and records the largest round any of its
// processes is asked to Decide.
type roundProbe struct {
	sim.Algorithm
	maxRound *int
}

func (a roundProbe) NewProcess(id, n int, r *rand.Rand) sim.Process {
	return roundProbeProc{Process: a.Algorithm.NewProcess(id, n, r), maxRound: a.maxRound}
}

type roundProbeProc struct {
	sim.Process
	maxRound *int
}

func (p roundProbeProc) Decide(round int) bool {
	*p.maxRound = max(*p.maxRound, round)
	return p.Process.Decide(round)
}

// TestReplaysStopAtCompletion: every reader of a replay stops at the
// completion round, so no replay simulates past it. On the 4-node bridge
// round robin completes by round 2 under every adversary, so neither the
// offline search nor a planned round may run any process's Decide at a
// later round, whatever the horizon.
func TestReplaysStopAtCompletion(t *testing.T) {
	d, err := graph.CliqueBridge(4)
	if err != nil {
		t.Fatal(err)
	}
	maxRound := 0
	alg := roundProbe{Algorithm: core.NewRoundRobin(), maxRound: &maxRound}
	res, err := Search(d, alg, Config{Rule: sim.CR1, Horizon: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstRounds != 2 || !res.AllComplete {
		t.Fatalf("worst case (%d, %v), want (2, true)", res.WorstRounds, res.AllComplete)
	}
	if maxRound > 2 {
		t.Errorf("Search ran Decide at round %d, past completion at 2", maxRound)
	}

	maxRound = 0
	p, err := NewPlanner(graph.Static(d), alg, PlannerConfig{Rule: sim.CR1, SearchRounds: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(nil); err != nil {
		t.Fatal(err)
	}
	if maxRound > 2 {
		t.Errorf("Plan ran Decide at round %d, past completion at 2", maxRound)
	}
	// A prefix past the completion round leaves nothing to plan.
	if choice, err := p.Plan(make([][]graph.EdgeID, 3)); choice != nil || err != nil {
		t.Errorf("Plan past completion = (%v, %v), want (nil, nil)", choice, err)
	}
}

// TestPlanMetricsObserveOnly: one truncated Plan call shows on the planner
// counters, and switching metrics off changes neither the choice nor the
// work, only whether the counters move.
func TestPlanMetricsObserveOnly(t *testing.T) {
	d := tinyBridge(t)
	alg, err := core.NewStrongSelect(5)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5 // an untruncated first round of strong select takes 8
	plan := func() ([]graph.EdgeID, int) {
		p, err := NewPlanner(graph.Static(d), alg, PlannerConfig{Rule: sim.CR1, NodeBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		choice, err := p.Plan(nil)
		if err != nil {
			t.Fatal(err)
		}
		return choice, p.TableLen()
	}
	counters := func() [5]int64 {
		return [5]int64{mPlans.Value(), mPlansTruncated.Value(), mExpansions.Value(), mTableLookups.Value(), mTableHits.Value()}
	}
	defer metrics.SetEnabled(metrics.Enabled())

	metrics.SetEnabled(true)
	before := counters()
	onChoice, onTable := plan()
	after := counters()
	var delta [5]int64
	for i := range delta {
		delta[i] = after[i] - before[i]
	}
	if delta[0] != 1 || delta[1] != 1 || delta[2] != budget {
		t.Errorf("plans/truncated/expansions moved by %v, want 1/1/%d", delta[:3], budget)
	}
	if delta[3] < delta[2] || delta[4] > delta[3] {
		t.Errorf("lookups %d, hits %d: want expansions (%d) <= lookups and hits <= lookups", delta[3], delta[4], delta[2])
	}

	metrics.SetEnabled(false)
	before = counters()
	offChoice, offTable := plan()
	if after := counters(); after != before {
		t.Errorf("counters moved with metrics off: %v -> %v", before, after)
	}
	if !slices.Equal(onChoice, offChoice) || onTable != offTable {
		t.Errorf("metrics changed the plan: (%v, %d) on, (%v, %d) off", onChoice, onTable, offChoice, offTable)
	}
}

// TestScriptedMapDeliverMatchesSink: a replay driven through the scripted
// adversary's derived map Deliver equals the native DeliverInto replay, for
// planner-built scripts under CR1–CR4, sync/async starts and static/churn
// schedules.
func TestScriptedMapDeliverMatchesSink(t *testing.T) {
	type mapOnly struct{ sim.Adversary } // hides DeliverInto from the engine
	d := tinyBridge(t)
	churn, err := graph.NewChurn(d, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, sched := range []graph.Schedule{graph.Static(d), churn} {
		for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
			for _, start := range []sim.StartRule{sim.SyncStart, sim.AsyncStart} {
				alg := core.NewDecay()
				p, err := NewPlanner(sched, alg, PlannerConfig{
					Rule: rule, Start: start, Seed: 3, SearchRounds: 10, DeliverRounds: 6, NodeBudget: 5000,
				})
				if err != nil {
					t.Fatal(err)
				}
				var script [][]graph.EdgeID
				for range 6 {
					choice, err := p.Plan(script)
					if err != nil {
						t.Fatal(err)
					}
					script = append(script, choice)
					delivered += len(choice)
				}
				cfg := sim.Config{Rule: rule, Start: start, MaxRounds: 40, Seed: 3}
				want, err := sim.RunDynamic(sched, alg, &scriptedAdversary{script: script}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunDynamic(sched, alg, mapOnly{&scriptedAdversary{script: script}}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d/%v/%v: map replay %+v, native replay %+v", sched.EpochLength(), rule, start, got, want)
				}
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no planned script delivered anything: the comparison saw no unreliable delivery")
	}
}

// TestMaskOfRejectsNonSubsets: a round's choice is a subset of its
// deliverable arcs, so an id outside them or a repeated id is an error.
func TestMaskOfRejectsNonSubsets(t *testing.T) {
	edges := []graph.EdgeID{3, 5, 8}
	if mask, err := maskOf(edges, []graph.EdgeID{8, 3}); err != nil || mask != 0b101 {
		t.Fatalf("maskOf({8,3}) = (%b, %v), want (101, nil)", mask, err)
	}
	for _, delivered := range [][]graph.EdgeID{{4}, {5, 5}, {3, 8, 3}} {
		if _, err := maskOf(edges, delivered); err == nil {
			t.Errorf("maskOf(%v) accepted a non-subset", delivered)
		}
	}
}
