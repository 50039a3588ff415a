package lowerbound

import (
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestTheorem2GameForcesLinearRounds(t *testing.T) {
	for _, alg := range []sim.Algorithm{
		core.NewRoundRobin(),
		mustStrongSelect(t, 16),
	} {
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := RunTheorem2Game(16, alg, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Theorem 2: no deterministic algorithm completes within n-3 rounds.
			if res.ForcedRounds <= 16-3 {
				t.Fatalf("forced rounds %d contradicts Theorem 2 bound > %d", res.ForcedRounds, 16-3)
			}
			// The same network is 2-broadcastable.
			if res.WitnessRounds != 2 {
				t.Fatalf("witness completed in %d rounds, want 2", res.WitnessRounds)
			}
		})
	}
}

func mustStrongSelect(t *testing.T, n int) sim.Algorithm {
	t.Helper()
	alg, err := core.NewStrongSelect(n)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func TestTheorem2GameValidation(t *testing.T) {
	if _, err := RunTheorem2Game(3, core.NewRoundRobin(), 0); err == nil {
		t.Fatal("expected error for n < 4")
	}
}

func TestTheorem2PerBridgeMonotoneForRoundRobin(t *testing.T) {
	// Round robin against the Theorem 2 adversary: the receiver gets the
	// message exactly when the bridge process first transmits alone, which
	// for bridge pid i is round i (all clique holders transmit in their own
	// slots; each slot has a single sender).
	n := 12
	res, err := RunTheorem2Game(n, core.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n-1; i++ {
		if res.PerBridge[i] != i {
			t.Errorf("bridge pid %d: completion %d, want %d", i, res.PerBridge[i], i)
		}
	}
	if res.WorstBridgePid != n-1 || res.ForcedRounds != n-1 {
		t.Errorf("worst = (pid %d, %d rounds), want (pid %d, %d)",
			res.WorstBridgePid, res.ForcedRounds, n-1, n-1)
	}
}

func TestTheorem4BoundsRandomizedSuccess(t *testing.T) {
	n, k, trials := 14, 5, 60
	alg, err := core.NewUniform(0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTheorem4(n, k, trials, alg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != float64(k)/float64(n-2) {
		t.Fatalf("bound = %v, want %v", res.Bound, float64(k)/float64(n-2))
	}
	// Monte-Carlo estimate of the adversary's best case must respect the
	// theorem within sampling noise (3 sigma ~ 3*sqrt(p(1-p)/trials) < 0.2).
	if res.MinSuccess > res.Bound+0.2 {
		t.Fatalf("min success %v grossly exceeds Theorem 4 bound %v", res.MinSuccess, res.Bound)
	}
}

func TestTheorem4Validation(t *testing.T) {
	alg, err := core.NewUniform(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTheorem4(3, 1, 10, alg, 1); err == nil {
		t.Fatal("expected error for n < 4")
	}
	if _, err := RunTheorem4(10, 0, 10, alg, 1); err == nil {
		t.Fatal("expected error for k < 1")
	}
	if _, err := RunTheorem4(10, 8, 10, alg, 1); err == nil {
		t.Fatal("expected error for k > n-3")
	}
	if _, err := RunTheorem4(10, 3, 0, alg, 1); err == nil {
		t.Fatal("expected error for trials < 1")
	}
}

func TestTheorem12Validation(t *testing.T) {
	if _, err := RunTheorem12Game(8, core.NewRoundRobin(), 0); err == nil {
		t.Fatal("expected error for even n")
	}
	if _, err := RunTheorem12Game(11, core.NewRoundRobin(), 0); err == nil {
		t.Fatal("expected error for n-1 not a power of two")
	}
	if _, err := RunTheorem12Game(5, core.NewRoundRobin(), 0); err == nil {
		t.Fatal("expected error for n < 9")
	}
}

func TestTheorem12GameAgainstRoundRobin(t *testing.T) {
	n := 17
	res, err := RunTheorem12Game(n, core.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitHorizon {
		t.Fatal("round robin must keep isolating processes")
	}
	if res.StagesCompleted != res.StagesPlanned {
		t.Fatalf("completed %d of %d stages", res.StagesCompleted, res.StagesPlanned)
	}
	// Every stage must extend the execution by at least log2(n-1)-2 rounds.
	minExt := MinStageExtension(n)
	for k, ext := range res.StageExtensions {
		if ext < minExt {
			t.Errorf("stage %d extension %d below guaranteed %d", k+1, ext, minExt)
		}
	}
	if res.ForcedRounds < res.TheoryBound {
		t.Errorf("forced rounds %d below theory bound %d", res.ForcedRounds, res.TheoryBound)
	}
}

func TestTheorem12GameAgainstStrongSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("strong select theorem-12 game is slow")
	}
	n := 17
	res, err := RunTheorem12Game(n, mustStrongSelect(t, n), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitHorizon && res.ForcedRounds < res.TheoryBound {
		t.Errorf("forced rounds %d below theory bound %d", res.ForcedRounds, res.TheoryBound)
	}
}

func TestTheorem12ForcedRoundsGrowSuperlinearly(t *testing.T) {
	// Ω(n log n): forced/(n) must grow with n for round robin.
	r9, err := RunTheorem12Game(9, core.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r33, err := RunTheorem12Game(33, core.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r33.ForcedRounds <= r9.ForcedRounds {
		t.Fatalf("forced rounds did not grow: %d (n=9) vs %d (n=33)", r9.ForcedRounds, r33.ForcedRounds)
	}
}

func TestMinStageExtension(t *testing.T) {
	cases := map[int]int{9: 1, 17: 2, 33: 3, 65: 4, 129: 5}
	for n, want := range cases {
		if got := MinStageExtension(n); got != want {
			t.Errorf("MinStageExtension(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTheorem12AdversarySegmentLookup(t *testing.T) {
	adv := &theorem12Adversary{
		segments: []segment{
			{fromRound: 1, alpha0: true},
			{fromRound: 5, pair: [2]int{2, 3}},
			{fromRound: 9, pair: [2]int{4, 5}},
		},
	}
	if !adv.segmentAt(3).alpha0 {
		t.Error("round 3 must be in the alpha0 segment")
	}
	if adv.segmentAt(5).pair != [2]int{2, 3} {
		t.Error("round 5 must be in the second segment")
	}
	if adv.segmentAt(100).pair != [2]int{4, 5} {
		t.Error("late rounds must use the last segment")
	}
}

// spontaneousAlg is a deterministic algorithm in which some processes send
// before holding the message (allowed under synchronous start); it exercises
// the adversary's rule 3 and the candidate-set machinery's N sets.
type spontaneousAlg struct{}

func (spontaneousAlg) Name() string { return "spontaneous" }

func (spontaneousAlg) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &spontaneousProc{id: id, n: n}
}

type spontaneousProc struct {
	id, n int
	has   bool
}

func (p *spontaneousProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *spontaneousProc) Decide(round int) bool {
	// Holders use round robin; even-id non-holders chatter every id-th round.
	if p.has {
		return (round-1)%p.n == p.id-1
	}
	return p.id%2 == 0 && round%(p.id+2) == 0
}

func (p *spontaneousProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}

func TestTheorem12GameAgainstSpontaneousSenders(t *testing.T) {
	n := 17
	res, err := RunTheorem12Game(n, spontaneousAlg{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitHorizon && res.ForcedRounds < res.TheoryBound {
		t.Errorf("forced rounds %d below theory bound %d", res.ForcedRounds, res.TheoryBound)
	}
}

// TestTheorem12MapDeliverMatchesSink: the Theorem 12 adversary driven
// through its derived map Deliver plays the same execution as through
// DeliverInto, across α_0 and a probe segment where rule 2 applies.
func TestTheorem12MapDeliverMatchesSink(t *testing.T) {
	type mapOnly struct{ sim.Adversary } // hides DeliverInto from the engine
	const n = 9
	d, err := graph.CompleteLayered(n)
	if err != nil {
		t.Fatal(err)
	}
	drv := &theorem12Driver{
		n:         n,
		dual:      d,
		committed: make([]int, n),
		aPids:     map[int]bool{1: true},
		segments:  []segment{{fromRound: 1, alpha0: true}},
		prefixLen: 3,
	}
	drv.committed[0] = 1
	adv := drv.adversaryFor([2]int{4, 7})
	for _, alg := range []sim.Algorithm{core.NewRoundRobin(), spontaneousAlg{}} {
		cfg := sim.Config{Rule: sim.CR1, Start: sim.SyncStart, MaxRounds: 200}
		want, err := sim.Run(d, alg, adv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(d, alg, mapOnly{adv}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: map run %+v, native run %+v", alg.Name(), got, want)
		}
	}
}
