package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualgraph/internal/graph"
)

// sparseFixture returns a dual large and thin enough to take the sparse
// delivery path.
func sparseFixture(t *testing.T) *graph.Dual {
	t.Helper()
	d, err := graph.Line(80)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeliveryModeChoice pins the per-run mode decision: small dense
// networks go word-parallel, large or thin ones stay per-edge.
func TestDeliveryModeChoice(t *testing.T) {
	dense, err := graph.CliqueBridge(65)
	if err != nil {
		t.Fatal(err)
	}
	if b := newRunBuffers(dense); !b.dense {
		t.Error("clique-bridge(65) should use the dense mask mode")
	}
	if b := newRunBuffers(sparseFixture(t)); b.dense {
		t.Error("line(80) should use the sparse bitset mode")
	}
}

// TestReachBitsetsCountClasses exercises the count-class transitions that
// replaced per-node sender lists, in both delivery modes: one delivery makes
// a node reached with a recoverable single sender, a second collides it, the
// touched-word list holds each nonzero word once, and clearRound returns the
// bitsets (and only the touched words) to zero.
func TestReachBitsetsCountClasses(t *testing.T) {
	d := sparseFixture(t)
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			buf := newBuffers(d, dense)
			sent := make([]bool, d.N())

			// Line: s1 and s2 each reach v, in the second word, and the
			// unreliable deliveries to 9 touch the first: both words must
			// reset.
			const v, s1, s2 = 70, 69, 71
			buf.deliverReliable([]graph.NodeID{s1})
			if !buf.reached(v) || buf.collided(v) {
				t.Fatal("one delivery: want reached, not collided")
			}
			if got := buf.firstFrom[v]; got != s1 {
				t.Fatalf("firstFrom[%d] = %d, want %d", v, got, s1)
			}
			buf.deliverReliable([]graph.NodeID{s2})
			if !buf.reached(v) || !buf.collided(v) {
				t.Fatal("two deliveries: want reached and collided")
			}
			if got := buf.firstFrom[s2+1]; got != s2 {
				t.Fatalf("firstFrom[%d] = %d, want %d", s2+1, got, s2)
			}
			if !buf.addUnrel(9, s1) || !buf.reached(9) || buf.collided(9) {
				t.Fatal("one unreliable delivery: want recorded, reached, not collided")
			}
			if got := buf.firstFrom[9]; got != s1 {
				t.Fatalf("unreliable firstFrom[9] = %d, want %d", got, s1)
			}
			// A repeated arc is refused and leaves the count class alone (the
			// sink turns the refusal into ErrBadDelivery); another sender
			// still collides.
			if buf.addUnrel(9, s1) || buf.collided(9) || len(buf.unrel) != 1 {
				t.Fatal("duplicate unreliable delivery must be refused, not collide")
			}
			if !buf.addUnrel(9, s2) || !buf.collided(9) {
				t.Fatal("a second sender's unreliable delivery must collide")
			}
			var nonzero []int32
			for w, x := range buf.reach1 {
				if x != 0 {
					nonzero = append(nonzero, int32(w))
				}
			}
			if got := slices.Sorted(slices.Values(buf.touchedW)); !slices.Equal(got, nonzero) {
				t.Fatalf("touched words %v, want the nonzero words %v", buf.touchedW, nonzero)
			}

			buf.clearRound(sent)
			for w, x := range buf.reach1 {
				if x != 0 || buf.reach2[w] != 0 {
					t.Fatalf("word %d not cleared: reach1=%x reach2=%x", w, x, buf.reach2[w])
				}
			}
			if len(buf.touchedW) != 0 || len(buf.unrel) != 0 {
				t.Fatal("touched word list or delivery list not truncated")
			}
			for v := range buf.unrelHead {
				if buf.unrelHead[v] != -1 || buf.unrelTail[v] != -1 {
					t.Fatalf("node %d chain not reset: head %d tail %d", v, buf.unrelHead[v], buf.unrelTail[v])
				}
			}
		})
	}
}

// TestClearRoundUnmarksOnlySenders pins the O(senders) sent-clear: clearRound
// must unset exactly the previous round's sender flags (an O(n) wipe per
// round is what it replaced) and truncate the sender list.
func TestClearRoundUnmarksOnlySenders(t *testing.T) {
	d := sparseFixture(t)
	n := d.N()
	buf := newRunBuffers(d)
	sent := make([]bool, n)
	for _, s := range []graph.NodeID{2, 41, 77} {
		sent[s] = true
		buf.senders = append(buf.senders, s)
	}
	buf.clearRound(sent)
	for i, f := range sent {
		if f {
			t.Fatalf("sent[%d] still set after clearRound", i)
		}
	}
	if len(buf.senders) != 0 {
		t.Fatal("sender list not truncated")
	}
}

// TestMaterializeReachingOrder pins the lazy CR4 list order against the
// legacy per-edge append order in both modes: reliable senders ascending
// (the reliable pass visited senders in ascending node order), then
// unreliable deliveries in sink-add order.
func TestMaterializeReachingOrder(t *testing.T) {
	check := func(t *testing.T, d *graph.Dual, dense bool, senders []graph.NodeID, target graph.NodeID) {
		t.Helper()
		buf := newRunBuffers(d)
		if buf.dense != dense {
			t.Fatalf("fixture takes dense=%v, want %v", buf.dense, dense)
		}
		sent := make([]bool, d.N())
		want := []graph.NodeID{}
		for _, s := range senders {
			sent[s] = true
			if d.G().HasEdge(s, target) {
				want = append(want, s)
			}
		}
		buf.senders = append(buf.senders, senders...)
		buf.deliverReliable(senders)
		// The unreliable deliveries out of ascending-sender order: they must
		// come last, in add order.
		unrel := []graph.NodeID{}
		for _, s := range senders {
			if d.HasUnreliableEdge(s, target) {
				unrel = append(unrel, s)
			}
		}
		for i := len(unrel) - 1; i >= 0; i-- {
			buf.addUnrel(target, unrel[i])
			want = append(want, unrel[i])
		}
		if got := buf.materializeReaching(target, sent); !slices.Equal(got, want) {
			t.Fatalf("materialized %v, want %v", got, want)
		}
	}

	dense, err := graph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3 is a non-sender inside the clique; senders reach it reliably.
	check(t, dense, true, []graph.NodeID{1, 4, 9}, 3)

	// Layers {0} {1..4} {5..8} {9..12}: target 10 hears layer 2 reliably and
	// nodes 0 and 1..4 over unreliable arcs; its own out-row is empty, so a
	// list read off out-rows instead of in-rows would miss every sender.
	directed, err := graph.DirectedLayered([]int{1, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	check(t, directed, true, []graph.NodeID{0, 1, 3, 5, 6, 11}, 10)

	sparse := sparseFixture(t)
	// Line: node 10's reliable in-neighbours are 9 and 11.
	check(t, sparse, false, []graph.NodeID{9, 11}, 10)

	// A whole dense run under a CR4 adversary that resolves every collision
	// itself: every non-sender of the clique sees the same reliable senders,
	// so one round resolves several nodes with identical reaching sets. Each
	// list Resolve sees must be the one recomputed from the network.
	t.Run("dense run", func(t *testing.T) {
		adv := &listCheckAdversary{t: t}
		if _, err := Run(dense, coinAlg{}, adv, Config{Seed: 3, Rule: CR4, Start: SyncStart, MaxRounds: 200}); err != nil {
			t.Fatal(err)
		}
		if adv.repeats == 0 {
			t.Fatal("no round resolved two nodes with identical reaching sets")
		}
	})
}

// coinAlg transmits with probability 1/2 in every round, message or not.
type coinAlg struct{}

func (coinAlg) Name() string { return "coin" }

func (coinAlg) NewProcess(_, _ int, rng *rand.Rand) Process { return coinProc{rng} }

type coinProc struct{ rng *rand.Rand }

func (coinProc) Start(int, bool)        {}
func (p coinProc) Decide(int) bool      { return p.rng.Intn(2) == 0 }
func (coinProc) Receive(int, Reception) {}

// listCheckAdversary is map-only: each unreliable edge of a sender delivers
// with probability 1/2, and each CR4 collision resolves uniformly among ⊥ and
// the reaching messages. Resolve checks its list against the network:
// reliable senders ascending, then the map's deliveries in sender order.
type listCheckAdversary struct {
	t       *testing.T
	unrel   map[graph.NodeID][]graph.NodeID // target -> senders, ascending
	last    []graph.NodeID                  // the round's previous resolved list
	repeats int                             // resolves that repeated last
}

func (*listCheckAdversary) Name() string { return "list-check" }

func (*listCheckAdversary) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	procOf := make([]int, d.N())
	for i := range procOf {
		procOf[i] = i + 1
	}
	return procOf, nil
}

func (a *listCheckAdversary) Deliver(v *View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	a.unrel, a.last = map[graph.NodeID][]graph.NodeID{}, nil
	m := map[graph.NodeID][]graph.NodeID{}
	for _, s := range senders {
		for _, u := range v.UnreliableOut(s) {
			if v.Rng.Intn(2) == 0 {
				m[s] = append(m[s], u)
				a.unrel[u] = append(a.unrel[u], s)
			}
		}
	}
	return m
}

func (a *listCheckAdversary) Resolve(v *View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	var want []graph.NodeID
	for s, sent := range v.Sent {
		if sent && v.Dual.G().HasEdge(graph.NodeID(s), node) {
			want = append(want, graph.NodeID(s))
		}
	}
	want = append(want, a.unrel[node]...)
	if !slices.Equal(reaching, want) {
		a.t.Fatalf("round %d: node %d resolved with %v, want %v", v.Round, node, reaching, want)
	}
	if slices.Equal(reaching, a.last) {
		a.repeats++
	}
	a.last = append(a.last[:0], reaching...)
	i := v.Rng.Intn(len(reaching) + 1)
	if i == len(reaching) {
		return NoDelivery
	}
	return reaching[i]
}
