package schedule

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/exhaustive"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestExactCliqueBridgeIsTwoBroadcastable(t *testing.T) {
	// Section 3 / Theorem 2: the clique-bridge network is 2-broadcastable.
	d, err := graph.CliqueBridge(8)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Rounds() != 2 {
		t.Fatalf("exact schedule = %d rounds, want 2", sched.Rounds())
	}
}

func TestExactLineNeedsDiameterRounds(t *testing.T) {
	d, err := graph.Line(7)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Rounds() != 6 {
		t.Fatalf("exact schedule on a line = %d rounds, want 6", sched.Rounds())
	}
}

func TestExactCompleteLayered(t *testing.T) {
	// The Theorem 12 network has (n-1)/2 layers; a guaranteed schedule needs
	// at least one round per layer (G' is complete, so concurrent senders
	// can always be jammed into collisions at uncovered nodes).
	d, err := graph.CompleteLayered(9)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Rounds() != 4 {
		t.Fatalf("exact schedule = %d rounds, want 4 (one per layer)", sched.Rounds())
	}
}

func TestExactRejectsLargeNetworks(t *testing.T) {
	d, err := graph.Line(30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(d); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestGreedyMatchesExactOnSmallNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		d, err := graph.RandomDual(10, 0.2, 0.4, rng)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Greedy(d)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Rounds() < exact.Rounds() {
			t.Fatalf("greedy (%d) beat exact (%d): exact search is broken", greedy.Rounds(), exact.Rounds())
		}
	}
}

func TestGreedySchedulesAreLoneTransmissions(t *testing.T) {
	d, err := graph.CliqueBridge(12)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Greedy(d)
	if err != nil {
		t.Fatal(err)
	}
	for r, senders := range sched {
		if len(senders) != 1 {
			t.Fatalf("greedy round %d has %d senders, want 1", r+1, len(senders))
		}
	}
}

// certify replays a schedule under a heuristic adversary and checks it
// completes in exactly the scheduled number of rounds.
func certify(t *testing.T, d *graph.Dual, sched Schedule, adv sim.Adversary) {
	t.Helper()
	res, err := sim.Run(d, Alg(sched), adv, sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		MaxRounds: sched.Rounds() + 1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("schedule of %d rounds did not complete under %s", sched.Rounds(), adv.Name())
	}
	if res.Rounds > sched.Rounds() {
		t.Fatalf("schedule took %d rounds, scheduled %d", res.Rounds, sched.Rounds())
	}
}

func TestSchedulesCertifiedAgainstAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	duals := []*graph.Dual{}
	d, err := graph.CliqueBridge(10)
	if err != nil {
		t.Fatal(err)
	}
	duals = append(duals, d)
	d, err = graph.RandomDual(12, 0.25, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	duals = append(duals, d)

	for _, dd := range duals {
		exact, err := Exact(dd)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Greedy(dd)
		if err != nil {
			t.Fatal(err)
		}
		for _, adv := range []sim.Adversary{adversary.Benign{}, adversary.GreedyCollider{}, adversary.FullDelivery{}} {
			certify(t, dd, exact, adv)
			certify(t, dd, greedy, adv)
		}
	}
}

func TestScheduleGuaranteeHoldsUnderExhaustiveAdversary(t *testing.T) {
	// The strongest certificate: for a tiny network, the exact schedule must
	// complete under every adversary delivery behaviour.
	d, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Exact(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exhaustive.Search(d, Alg(sched), exhaustive.Config{
		Rule:    sim.CR1,
		Horizon: sched.Rounds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllComplete {
		t.Fatal("exact schedule failed under some adversary behaviour")
	}
	if res.WorstRounds > sched.Rounds() {
		t.Fatalf("worst case %d exceeds scheduled %d", res.WorstRounds, sched.Rounds())
	}
}

func TestProgressSemantics(t *testing.T) {
	// 0-1 reliable, 0-2 reliable, plus unreliable 1-2. If 0 and 1 both
	// transmit, node 2 is not guaranteed: 1's unreliable edge can collide.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	gp := g.Clone()
	gp.MustAddEdge(1, 2)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders := uint64(1)<<0 | 1<<1
	got := progress(d, holders, []graph.NodeID{0, 1})
	if got&(1<<2) != 0 {
		t.Fatal("node 2 must not be guaranteed when a concurrent G' edge exists")
	}
	got = progress(d, holders, []graph.NodeID{0})
	if got&(1<<2) == 0 {
		t.Fatal("lone reliable transmission must guarantee delivery")
	}
}

// TestAlgPlansExactly: a schedule process names as its next send exactly
// the first scheduled round from the asked one on, once it holds the
// message, and never one before; and a run that plans by it gives the same
// senders in every round as a run that asks every node every round. The
// schedule spans several turns of the round loop's calendar, with gaps
// longer than one turn.
func TestAlgPlansExactly(t *testing.T) {
	const n, rounds = 12, 300
	rng := rand.New(rand.NewSource(3))
	sched := make(Schedule, rounds)
	for r := range sched {
		if rng.Intn(3) == 0 {
			sched[r] = []graph.NodeID{graph.NodeID(rng.Intn(n))}
		}
	}
	alg := Alg(sched)
	for id := 1; id <= n; id++ {
		p := alg.NewProcess(id, n, nil).(interface {
			sim.Process
			sim.SendPlanner
		})
		if got := p.NextSend(1); got != math.MaxInt {
			t.Fatalf("process %d without the message plans round %d", id, got)
		}
		p.Start(1, true)
		next := math.MaxInt
		for r := rounds + 2; r >= 1; r-- {
			if p.Decide(r) {
				next = r
			}
			if got := p.NextSend(r); got != next {
				t.Fatalf("process %d: NextSend(%d) = %d, want %d", id, r, got, next)
			}
		}
	}
	d, err := graph.RandomDual(n, 0.3, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: rounds, Seed: 1}
	planned, err := sim.Start(graph.Static(d), alg, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	asked, err := sim.Start(graph.Static(d), unplanned{alg}, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for r := 1; r <= rounds; r++ {
		if _, err := planned.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := asked.Step(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(planned.Senders(), asked.Senders()) {
			t.Fatalf("round %d: senders %v, asked every round %v", r, planned.Senders(), asked.Senders())
		}
		sends += len(planned.Senders())
	}
	if sends < rounds/10 {
		t.Fatalf("%d sends in %d rounds: the run does not exercise the plans", sends, rounds)
	}
}

// unplanned hides the processes' NextSend from the round loop.
type unplanned struct{ sim.Algorithm }

func (a unplanned) NewProcess(id, n int, r *rand.Rand) sim.Process {
	return struct{ sim.Process }{a.Algorithm.NewProcess(id, n, r)}
}
