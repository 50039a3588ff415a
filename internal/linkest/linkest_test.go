package linkest

import (
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func buildDual(t *testing.T) *graph.Dual {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	d, err := graph.Grid(4, 4, 2, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProbeValidation(t *testing.T) {
	d := buildDual(t)
	if _, err := Probe(d, 0.5, 0, 0.9, 1); err == nil {
		t.Fatal("expected error for 0 cycles")
	}
	if _, err := Probe(d, -0.1, 10, 0.9, 1); err == nil {
		t.Fatal("expected error for negative probability")
	}
	if _, err := Probe(d, 0.5, 10, 0, 1); err == nil {
		t.Fatal("expected error for zero threshold")
	}
	if _, err := Probe(d, 0.5, 10, 1.5, 1); err == nil {
		t.Fatal("expected error for threshold > 1")
	}
}

func TestProbeReliableArcsAlwaysKept(t *testing.T) {
	d := buildDual(t)
	s, err := Probe(d, 0.0, 20, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With delivery probability 0 the unreliable arcs never deliver:
	// perfect classification.
	if s.FalsePositives != 0 || s.FalseNegatives != 0 {
		t.Fatalf("FP=%d FN=%d, want 0/0", s.FalsePositives, s.FalseNegatives)
	}
	if s.Precision() != 1 || s.Recall() != 1 {
		t.Fatalf("precision=%v recall=%v, want 1/1", s.Precision(), s.Recall())
	}
	// Reliable arcs must all have rate 1.
	for arc, rate := range s.Rates {
		if d.G().HasEdge(arc.From, arc.To) && rate != 1 {
			t.Fatalf("reliable arc %v has rate %v", arc, rate)
		}
	}
}

func TestProbeFlakyLinksSurviveCulling(t *testing.T) {
	d := buildDual(t)
	// Links that deliver 90% of probes survive a 0.75 ETX-style threshold.
	s, err := Probe(d, 0.9, 200, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.FalsePositives == 0 {
		t.Fatal("flaky links delivering 90% of probes must pass the cull")
	}
	if s.Recall() != 1 {
		t.Fatalf("recall = %v, want 1 (reliable arcs always deliver)", s.Recall())
	}
}

func TestProbeRatesConcentrate(t *testing.T) {
	d := buildDual(t)
	s, err := Probe(d, 0.5, 400, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for arc, rate := range s.Rates {
		if d.G().HasEdge(arc.From, arc.To) {
			continue
		}
		if rate < 0.35 || rate > 0.65 {
			t.Fatalf("unreliable arc %v rate %v far from 0.5 after 400 cycles", arc, rate)
		}
	}
}

func TestCulledDualValid(t *testing.T) {
	d := buildDual(t)
	s, err := Probe(d, 0.9, 100, 0.75, 4)
	if err != nil {
		t.Fatal(err)
	}
	culled, err := s.CulledDual()
	if err != nil {
		t.Fatal(err)
	}
	if culled.N() != d.N() {
		t.Fatal("culled dual has wrong size")
	}
	// The culled reliable layer is a supergraph of G here (recall 1), so it
	// must contain every true reliable arc.
	for u := 0; u < d.N(); u++ {
		for _, v := range d.G().Out(graph.NodeID(u)) {
			if !culled.G().HasEdge(graph.NodeID(u), v) {
				t.Fatalf("culled graph lost reliable arc (%d,%d)", u, v)
			}
		}
	}
}

// TestProbeThenBetray is the package's reason to exist: the adversary
// behaves during probing (links deliver 95% of probes, so they survive the
// cull) and then turns every unreliable link off. The TreeCast schedule
// computed over the culled topology strands any subtree hanging off a
// trusted-but-unreliable link, while Strong Select on the honest dual graph
// still completes.
func TestProbeThenBetray(t *testing.T) {
	d := buildDual(t)
	s, err := Probe(d, 0.95, 200, 0.75, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.FalsePositives == 0 {
		t.Fatal("setup: the cull must have admitted unreliable links")
	}
	culled, err := s.CulledDual()
	if err != nil {
		t.Fatal(err)
	}

	// TreeCast trusts the culled graph. The betrayal: a benign adversary
	// never delivers unreliable edges again.
	tc, err := core.NewTreeCast(culled.G(), culled.Source())
	if err != nil {
		t.Fatal(err)
	}
	resTree, err := sim.Run(d, tc, adversary.Benign{}, sim.Config{
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		MaxRounds: 4 * d.N(),
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}

	ss, err := core.NewStrongSelect(d.N())
	if err != nil {
		t.Fatal(err)
	}
	resSS, err := sim.Run(d, ss, adversary.Benign{}, sim.Config{
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		MaxRounds: 1_000_000,
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resSS.Completed {
		t.Fatal("strong select must complete regardless of the betrayal")
	}

	// Whether TreeCast survives depends on whether its BFS tree used a
	// betrayed link; with 0.95-delivery probing on this grid it does. If
	// this ever flakes the seed made the tree all-reliable, which would be a
	// setup failure worth knowing about.
	if resTree.Completed {
		t.Fatal("treecast completed despite betrayed links; probe setup no longer exercises the failure")
	}
}

func TestTreeCastOnHonestTopologyIsFast(t *testing.T) {
	d := buildDual(t)
	tc, err := core.NewTreeCast(d.G(), d.Source())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(d, tc, adversary.Benign{}, sim.Config{
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		MaxRounds: d.N() + 1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("treecast must complete on its own reliable topology")
	}
	if res.Rounds >= d.N() {
		t.Fatalf("treecast took %d rounds, want < n", res.Rounds)
	}
}
