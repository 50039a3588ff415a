package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestNewStrongSelectValidation(t *testing.T) {
	if _, err := NewStrongSelect(1); err == nil {
		t.Fatal("expected error for n=1")
	}
}

func TestStrongSelectScales(t *testing.T) {
	a, err := NewStrongSelect(1024)
	if err != nil {
		t.Fatal(err)
	}
	// smax = log2(sqrt(1024 / 10)) = log2(10.1...) = 3.
	if a.Smax() != 3 {
		t.Fatalf("Smax = %d, want 3", a.Smax())
	}
	if a.EpochLength() != 7 {
		t.Fatalf("EpochLength = %d, want 7", a.EpochLength())
	}
	// The top family must be the (n,n)-SSF round robin.
	if a.Family(a.Smax()).Size() != 1024 {
		t.Fatalf("top family size = %d, want n", a.Family(a.Smax()).Size())
	}
}

func TestStrongSelectSlotSchedule(t *testing.T) {
	a, err := NewStrongSelect(1024) // smax=3, epoch length 7
	if err != nil {
		t.Fatal(err)
	}
	// Epoch layout: round 1 -> F1; rounds 2-3 -> F2; rounds 4-7 -> F3.
	wantScale := []int{1, 2, 2, 3, 3, 3, 3}
	for r := 1; r <= 7; r++ {
		if got := a.SlotAt(r).Scale; got != wantScale[r-1] {
			t.Errorf("round %d scale = %d, want %d", r, got, wantScale[r-1])
		}
	}
	// Second epoch repeats the scales with advanced counters.
	for r := 8; r <= 14; r++ {
		if got := a.SlotAt(r).Scale; got != wantScale[r-8] {
			t.Errorf("round %d scale = %d, want %d", r, got, wantScale[r-8])
		}
	}
	// Counters advance by the per-epoch set count of the scale.
	if a.SlotAt(1).Counter != 0 || a.SlotAt(8).Counter != 1 {
		t.Errorf("scale-1 counters = %d,%d, want 0,1", a.SlotAt(1).Counter, a.SlotAt(8).Counter)
	}
	if a.SlotAt(4).Counter != 0 || a.SlotAt(7).Counter != 3 || a.SlotAt(11).Counter != 4 {
		t.Errorf("scale-3 counters wrong: %d %d %d",
			a.SlotAt(4).Counter, a.SlotAt(7).Counter, a.SlotAt(11).Counter)
	}
}

func TestStrongSelectSlotCountersAreContiguous(t *testing.T) {
	a, err := NewStrongSelect(256)
	if err != nil {
		t.Fatal(err)
	}
	// For each scale, counters across rounds must be 0,1,2,... in order.
	next := make([]int, a.Smax()+1)
	for r := 1; r <= 10*a.EpochLength(); r++ {
		slot := a.SlotAt(r)
		if slot.Counter != next[slot.Scale] {
			t.Fatalf("round %d scale %d counter = %d, want %d", r, slot.Scale, slot.Counter, next[slot.Scale])
		}
		next[slot.Scale]++
		if wantSet := slot.Counter % a.Family(slot.Scale).Size(); slot.Set != wantSet {
			t.Fatalf("round %d set = %d, want %d", r, slot.Set, wantSet)
		}
	}
}

func TestStrongSelectSourceParticipatesOncePerFamily(t *testing.T) {
	n := 64
	a, err := NewStrongSelect(n)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := a.NewProcess(1, n, nil).(*strongSelectProc)
	if !ok {
		t.Fatal("unexpected process type")
	}
	p.Start(1, true)
	// Count scale-s transmission opportunities consumed.
	horizon := 50 * a.EpochLength() * n
	for r := 1; r <= horizon; r++ {
		p.Decide(r)
	}
	if !p.Done() {
		t.Fatal("process must finish all its iterations")
	}
	// After Done, it never transmits again.
	for r := horizon + 1; r < horizon+2*a.EpochLength(); r++ {
		if p.Decide(r) {
			t.Fatal("finished process transmitted")
		}
	}
}

func TestStrongSelectNonHolderSilent(t *testing.T) {
	a, err := NewStrongSelect(16)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NewProcess(3, 16, nil)
	p.Start(1, false)
	for r := 1; r <= 100; r++ {
		if p.Decide(r) {
			t.Fatal("process without the message transmitted")
		}
	}
	p.Receive(100, sim.Reception{Kind: sim.Delivered, Broadcast: true, FromProc: 1})
	sent := false
	for r := 101; r <= 100+16*16*64; r++ {
		if p.Decide(r) {
			sent = true
			break
		}
	}
	if !sent {
		t.Fatal("holder never transmitted")
	}
}

func strongSelectBound(n int) int {
	// X = 12 n^{3/2} f(n) / sqrt(log n) from Theorem 10, with the
	// constructive family's extra log factor absorbed into a generous
	// constant.
	nf := float64(n)
	return int(40*nf*math.Sqrt(nf)*math.Log2(nf)) + 1000
}

func TestStrongSelectCompletesOnDualGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topos := map[string]*graph.Dual{}
	d, err := graph.CliqueBridge(33)
	if err != nil {
		t.Fatal(err)
	}
	topos["clique-bridge"] = d
	d, err = graph.CompleteLayered(33)
	if err != nil {
		t.Fatal(err)
	}
	topos["complete-layered"] = d
	d, err = graph.RandomDual(40, 0.1, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	topos["random"] = d
	d, err = graph.DirectedLayered([]int{3, 4, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	topos["directed-layered"] = d

	for name, dd := range topos {
		t.Run(name, func(t *testing.T) {
			alg, err := NewStrongSelect(dd.N())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(dd, alg, adversary.GreedyCollider{}, sim.Config{
				Rule:      sim.CR4,
				Start:     sim.AsyncStart,
				MaxRounds: strongSelectBound(dd.N()),
				Seed:      99,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("strong select did not complete within %d rounds", strongSelectBound(dd.N()))
			}
		})
	}
}

func TestStrongSelectDeterministic(t *testing.T) {
	d, err := graph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewStrongSelect(17)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) int {
		res, err := sim.Run(d, alg, adversary.GreedyCollider{}, sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	// Deterministic algorithm + deterministic adversary: seed must not matter.
	if run(1) != run(2) {
		t.Fatal("deterministic execution depends on the seed")
	}
}

// slotSends is the definition of a Strong Select holder's sends, stepped
// round by round with SlotAt and Contains: from round from on, at each scale
// s it waits for a slot of set 0, then takes part in the next Size() slots
// of scale s, sending where the set contains id. It returns the send rounds
// and the last round of the last iteration.
func slotSends(a *StrongSelect, id, from int) (sends []int, end int) {
	const (
		waiting = iota
		participating
		finished
	)
	state := make([]int, a.Smax())
	consumed := make([]int, a.Smax())
	left := a.Smax()
	for r := from; left > 0; r++ {
		slot := a.SlotAt(r)
		s := slot.Scale - 1
		if state[s] == finished || state[s] == waiting && slot.Set != 0 {
			continue
		}
		state[s] = participating
		if a.Family(slot.Scale).Contains(slot.Set, id) {
			sends = append(sends, r)
		}
		if consumed[s]++; consumed[s] == a.Family(slot.Scale).Size() {
			state[s] = finished
			left--
			end = r
		}
	}
	return sends, end
}

// TestStrongSelectPlanMatchesSlotSchedule: the sends a process plans at its
// first round as a holder are exactly the ones the slot schedule defines,
// for every first-holding round over two full periods of the longest
// family cycle, for several ids and sizes (n = 256 and 1024 run two and
// three scales). Decide, called every round, sends in exactly those rounds,
// and Done turns true at the last round of the last iteration.
func TestStrongSelectPlanMatchesSlotSchedule(t *testing.T) {
	for _, n := range []int{16, 40, 256, 1024} {
		a, err := NewStrongSelect(n)
		if err != nil {
			t.Fatal(err)
		}
		period := 0 // rounds until the slowest family cycles back to set 0
		for s := 1; s <= a.Smax(); s++ {
			period = max(period, a.Family(s).Size()/(1<<(s-1))*a.EpochLength()+a.EpochLength())
		}
		ids := []int{1, 2, n / 2, n}
		step := 1
		if n == 1024 {
			step = 5 // coprime to the epoch length 7: every epoch position still comes up
		}
		for _, id := range ids {
			for from := 1; from <= 2*period; from += step {
				want, wantEnd := slotSends(a, id, from)
				p := a.NewProcess(id, n, nil).(*strongSelectProc)
				p.Start(from, true)
				if got := p.NextSend(from); got != want[0] {
					t.Fatalf("n=%d id=%d from=%d: NextSend = %d, want %d", n, id, from, got, want[0])
				}
				if !slices.Equal(p.sends, want) || p.end != wantEnd {
					t.Fatalf("n=%d id=%d from=%d: plan %v ending %d, want %v ending %d", n, id, from, p.sends, p.end, want, wantEnd)
				}
				if n > 256 {
					continue
				}
				// Step Decide every round, as the plain round loop does.
				q := a.NewProcess(id, n, nil).(*strongSelectProc)
				q.Start(from, true)
				var got []int
				for r := from; r <= wantEnd; r++ {
					if q.Done() {
						t.Fatalf("n=%d id=%d from=%d: Done before round %d", n, id, from, r)
					}
					if q.Decide(r) {
						got = append(got, r)
					}
				}
				if !slices.Equal(got, want) || !q.Done() {
					t.Fatalf("n=%d id=%d from=%d: Decide sent in %v (done %v), want %v", n, id, from, got, q.Done(), want)
				}
			}
		}
	}
}
