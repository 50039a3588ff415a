package core

import (
	"math"
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestRoundRobinTransmissionPattern(t *testing.T) {
	p := NewRoundRobin().NewProcess(3, 5, nil)
	p.Start(1, true)
	want := map[int]bool{3: true, 8: true, 13: true}
	for r := 1; r <= 15; r++ {
		if got := p.Decide(r); got != want[r] {
			t.Errorf("round %d: Decide = %v, want %v", r, got, want[r])
		}
	}
}

func TestRoundRobinCompletesOnCliqueBridgeWorstCase(t *testing.T) {
	// Round robin isolates every process once per n rounds, so even the
	// Theorem 2 adversary cannot stop it beyond ~2n rounds.
	n := 20
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewTheorem2(n, n-1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(d, NewRoundRobin(), adv, sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		MaxRounds: 3 * n,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("round robin must complete against the Theorem 2 adversary")
	}
	if res.Rounds < n-3 {
		t.Fatalf("completion in %d rounds contradicts Theorem 2 (n-3 = %d)", res.Rounds, n-3)
	}
}

func TestDecayCompletesOnClassicalNetworks(t *testing.T) {
	for _, build := range []func() (*graph.Dual, error){
		func() (*graph.Dual, error) { return graph.Complete(32) },
		func() (*graph.Dual, error) { return graph.Line(24) },
		func() (*graph.Dual, error) { return graph.BinaryTree(31) },
	} {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(d, NewDecay(), adversary.Benign{}, sim.Config{
			Rule:      sim.CR3,
			Start:     sim.AsyncStart,
			MaxRounds: 20000,
			Seed:      77,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("decay did not complete on %d-node classical network", d.N())
		}
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0); err == nil {
		t.Fatal("expected error for p=0")
	}
	if _, err := NewUniform(1.5); err == nil {
		t.Fatal("expected error for p>1")
	}
}

func TestUniformAlwaysSendsAtP1(t *testing.T) {
	a, err := NewUniform(1)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewProcess(1, 4, rand.New(rand.NewSource(1)))
	p.Start(1, true)
	for r := 1; r <= 10; r++ {
		if !p.Decide(r) {
			t.Fatal("uniform(1) holder must always transmit")
		}
	}
}

func TestUniformCompletesOnStar(t *testing.T) {
	d, err := graph.Star(16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewUniform(0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(d, a, adversary.Benign{}, sim.Config{
		Rule: sim.CR3, Start: sim.AsyncStart, MaxRounds: 5000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("uniform must complete on a star (source reaches all leaves)")
	}
}

func TestAlgorithmNames(t *testing.T) {
	if NewRoundRobin().Name() != "round-robin" {
		t.Error("round robin name")
	}
	if NewDecay().Name() != "decay" {
		t.Error("decay name")
	}
	h, err := NewHarmonic(7)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "harmonic(T=7)" {
		t.Errorf("harmonic name = %q", h.Name())
	}
	ss, err := NewStrongSelect(16)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Name() != "strong-select" {
		t.Error("strong select name")
	}
	u, err := NewUniform(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "uniform(p=0.250)" {
		t.Errorf("uniform name = %q", u.Name())
	}
}

func TestDecayHoldersEventuallyRelay(t *testing.T) {
	// Two-hop line: the middle node must relay.
	d, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(d, NewDecay(), adversary.Benign{}, sim.Config{
		Rule: sim.CR3, Start: sim.AsyncStart, MaxRounds: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("decay must complete on a 3-node line")
	}
	if res.FirstReceive[2] <= res.FirstReceive[1] {
		t.Fatal("far node cannot receive before the relay")
	}
}

// TestDecayProbMatchesPow pins the send-probability table against the
// formula it replaced: 2^-j from math.Pow for every round j of a phase.
func TestDecayProbMatchesPow(t *testing.T) {
	for _, n := range []int{2, 3, 256, 1024, 1 << 20} {
		p := NewDecay().NewProcess(1, n, nil).(*decayProc)
		if p.phaseLen > len(decayProb) {
			t.Fatalf("n=%d: phase of %d rounds outruns the %d-entry table", n, p.phaseLen, len(decayProb))
		}
		for j := 0; j < p.phaseLen; j++ {
			if got, want := decayProb[j], math.Pow(2, -float64(j)); got != want {
				t.Fatalf("n=%d, j=%d: table %v, math.Pow %v", n, j, got, want)
			}
		}
	}
}
