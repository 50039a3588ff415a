package core

import (
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestNewTreeCastValidation(t *testing.T) {
	g := graph.NewBuilder(1, false)
	if _, err := NewTreeCast(g.Freeze(), 0); err == nil {
		t.Fatal("expected error for n=1")
	}
	g = graph.NewBuilder(4, false)
	g.MustAddEdge(0, 1)
	if _, err := NewTreeCast(g.Freeze(), 9); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}

func TestTreeCastBFSSlots(t *testing.T) {
	// Line 0-1-2-3: BFS order is 0,1,2,3, so node k transmits in round k+1.
	g := graph.NewBuilder(4, false)
	for u := 0; u+1 < 4; u++ {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	tc, err := NewTreeCast(g.Freeze(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 1; pid <= 4; pid++ {
		p := tc.NewProcess(pid, 4, nil)
		p.Start(1, true) // force-hold so the slot is observable
		for r := 1; r <= 4; r++ {
			want := r == pid
			if got := p.Decide(r); got != want {
				t.Errorf("pid %d round %d: Decide = %v, want %v", pid, r, got, want)
			}
		}
	}
}

func TestTreeCastUnreachableNodesSilent(t *testing.T) {
	// Node 3 unreachable in the trusted graph: it gets no slot.
	g := graph.NewBuilder(4, true)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	tc, err := NewTreeCast(g.Freeze(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := tc.NewProcess(4, 4, nil)
	p.Start(1, true)
	for r := 1; r <= 10; r++ {
		if p.Decide(r) {
			t.Fatal("unreachable node transmitted")
		}
	}
}

func TestTreeCastSingleSenderPerRound(t *testing.T) {
	d, err := graph.BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTreeCast(d.G(), d.Source())
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(graph.Static(d), tc, adversary.Benign{}, sim.Config{
		Rule: sim.CR1, Start: sim.SyncStart, Seed: 1, MaxRounds: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for run.Round() < 16 {
		if _, err := run.Step(); err != nil {
			t.Fatal(err)
		}
		if senders := run.Senders(); len(senders) > 1 {
			t.Fatalf("round %d has %d senders; treecast must be collision-free", run.Round(), len(senders))
		}
	}
	if !run.Result().Completed {
		t.Fatal("treecast must complete on its own topology")
	}
}
