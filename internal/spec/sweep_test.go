package spec

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/sim"
)

func testSweep() Sweep {
	base := Default()
	base.Seed = 6
	return Sweep{
		Base:       base,
		Topologies: []Choice{{Name: "clique-bridge"}, {Name: "line"}},
		Algorithms: []Choice{{Name: "harmonic"}, {Name: "round-robin"}},
		Ns:         []int{9, 17},
		Trials:     10,
	}
}

func TestCellsEnumerationOrderAndLabels(t *testing.T) {
	cells, err := testSweep().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("2x2x2 sweep expanded to %d cells", len(cells))
	}
	wantFirst := "topo=clique-bridge alg=harmonic n=9"
	wantLast := "topo=line alg=round-robin n=17"
	if cells[0].Label != wantFirst || cells[7].Label != wantLast {
		t.Fatalf("labels [0]=%q [7]=%q, want %q / %q",
			cells[0].Label, cells[7].Label, wantFirst, wantLast)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Scenario.Seed != 6 || c.Scenario.Adversary.Name != "greedy" {
			t.Fatalf("cell %d lost base fields: %+v", i, c.Scenario)
		}
	}
	// n is the innermost listed axis here: cells 0 and 1 differ only in n.
	if cells[0].Scenario.N != 9 || cells[1].Scenario.N != 17 {
		t.Fatalf("innermost axis wrong: n[0]=%d n[1]=%d", cells[0].Scenario.N, cells[1].Scenario.N)
	}
}

func TestEmptySweepIsOneBaseCell(t *testing.T) {
	cells, err := Sweep{Base: Default()}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Label != "base" {
		t.Fatalf("empty sweep = %+v", cells)
	}
}

// TestGridDeterministicAcrossWorkerCounts is the tentpole guarantee: the
// whole GridResult — every cell summary, including quantile sketch state —
// is bit-identical at 1, 2, and 8 workers, and each cell equals its
// standalone Built.RunStream output.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := testSweep()
	ref, err := sw.Run(context.Background(), engine.Config{Workers: 1}, engine.StreamConfig{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := sw.Run(context.Background(), engine.Config{Workers: workers}, engine.StreamConfig{}, Hooks{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("GridResult differs between 1 and %d workers", workers)
		}
	}
	for _, cr := range ref.Cells {
		standalone, err := mustBuild(t, cr.Cell.Scenario).RunStream(context.Background(), sw.Trials, engine.Config{Workers: 3}, engine.StreamConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cr.Summary, standalone) {
			t.Errorf("cell %q: grid summary differs from standalone Built.RunStream", cr.Cell.Label)
		}
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	sw := testSweep()
	sw.Rules = []sim.CollisionRule{sim.CR3, sim.CR4}
	blob, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var back Sweep
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sw) {
		t.Fatalf("sweep round trip drifted:\n%+v\n%+v", back, sw)
	}
	a, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cells differ after a JSON round trip")
	}
}

// TestSweepSparseJSONInheritsDefaults checks the spec-file ergonomics: a
// file that only names what it sweeps inherits the rest from Default.
func TestSweepSparseJSONInheritsDefaults(t *testing.T) {
	var sw Sweep
	blob := `{"topologies":[{"name":"line"},{"name":"star"}],"ns":[5,9],"trials":3}`
	if err := json.Unmarshal([]byte(blob), &sw); err != nil {
		t.Fatal(err)
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded to %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Scenario.Algorithm.Name != "harmonic" || c.Scenario.Rule != sim.CR4 {
			t.Fatalf("cell %q did not inherit defaults: %+v", c.Label, c.Scenario)
		}
	}
}

func TestSweepBadCellFailsWithLabel(t *testing.T) {
	sw := Sweep{
		Base:       Default(),
		Topologies: []Choice{{Name: "line"}, {Name: "nope"}},
	}
	_, err := sw.Cells()
	if err == nil || !strings.Contains(err.Error(), "topo=nope") {
		t.Fatalf("err = %v, want the failing cell's label", err)
	}
	if _, err := (Sweep{Base: Default(), Trials: -1}).Cells(); err == nil {
		t.Fatal("negative trials must fail")
	}
}

// TestSweepRejectsNAxisOverSizelessTopology: layered topologies derive
// their size from params, so an n axis would run byte-identical duplicate
// cells under different labels — the sweep must refuse.
func TestSweepRejectsNAxisOverSizelessTopology(t *testing.T) {
	sw := Sweep{
		Base:       Default(),
		Topologies: []Choice{{Name: "clique-bridge"}, {Name: "layered-random"}},
		Ns:         []int{9, 17},
	}
	if _, err := sw.Cells(); err == nil || !strings.Contains(err.Error(), "layered-random") {
		t.Fatalf("err = %v, want an ignores-n rejection naming the topology", err)
	}
	base := Default()
	base.Topology = Choice{Name: "directed-layered"}
	if _, err := (Sweep{Base: base, Ns: []int{9}}).Cells(); err == nil {
		t.Fatal("base topology that ignores n must also be rejected under an n axis")
	}
	// Without an n axis the combination is fine.
	if _, err := (Sweep{Base: base}).Cells(); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsDuplicateBuiltCells: grid rounds n up to a square, so two
// requested sizes can build the identical network — Run must refuse rather
// than report one cell twice under different n= labels.
func TestRunRejectsDuplicateBuiltCells(t *testing.T) {
	base := Default()
	base.Topology = Choice{Name: "grid"}
	sw := Sweep{Base: base, Ns: []int{33, 34}, Trials: 2}
	_, err := sw.Run(context.Background(), engine.Config{Workers: 2}, engine.StreamConfig{}, Hooks{})
	if err == nil || !strings.Contains(err.Error(), "same 36-node network") {
		t.Fatalf("err = %v, want a duplicate-cell rejection", err)
	}
	// Distinct built sizes stay fine.
	sw.Ns = []int{16, 36}
	if _, err := sw.Run(context.Background(), engine.Config{Workers: 2}, engine.StreamConfig{}, Hooks{}); err != nil {
		t.Fatal(err)
	}
}

func TestGridResultLookupByLabel(t *testing.T) {
	sw := Sweep{Base: Default(), Ns: []int{9, 17}, Trials: 2}
	g, err := sw.Run(context.Background(), engine.Config{Workers: 2}, engine.StreamConfig{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := g.Cell("n=17")
	if !ok {
		t.Fatal("label n=17 not found")
	}
	if cr.Summary.Trials != 2 {
		t.Fatalf("cell trials = %d", cr.Summary.Trials)
	}
	if _, ok := g.Cell("n=999"); ok {
		t.Fatal("bogus label must not resolve")
	}
}
