package registry

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestEveryTopologyBuildsAtSmallN is the registry half of the Spec-layer
// property test: every registered name must construct with default params
// at a small odd size (odd so complete-layered's structural constraint is
// met without special-casing).
func TestEveryTopologyBuildsAtSmallN(t *testing.T) {
	for _, e := range Topologies() {
		d, err := Topology(e.Name, 9, 1, nil)
		if err != nil {
			t.Errorf("Topology(%q, 9): %v", e.Name, err)
			continue
		}
		if d.N() < 2 {
			t.Errorf("Topology(%q, 9): built %d nodes", e.Name, d.N())
		}
	}
}

func TestEveryAlgorithmBuildsAtSmallN(t *testing.T) {
	for _, e := range Algorithms() {
		alg, err := Algorithm(e.Name, 9, nil)
		if err != nil {
			t.Errorf("Algorithm(%q, 9): %v", e.Name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("Algorithm(%q): empty Name()", e.Name)
		}
	}
}

func TestEveryAdversaryBuilds(t *testing.T) {
	for _, e := range Adversaries() {
		adv, err := Adversary(e.Name, nil)
		if err != nil {
			t.Errorf("Adversary(%q): %v", e.Name, err)
			continue
		}
		if adv.Name() == "" {
			t.Errorf("Adversary(%q): empty Name()", e.Name)
		}
	}
}

// TestDefaultsMatchHistoricalConstructors pins the registry's parameter
// defaults to the constructor calls dgsim and expt hardcoded before the
// registry existed: same seed, same network.
func TestDefaultsMatchHistoricalConstructors(t *testing.T) {
	seed := int64(7)
	cases := []struct {
		name string
		n    int
		want func() (*graph.Dual, error)
	}{
		{"random", 21, func() (*graph.Dual, error) {
			return graph.RandomDual(21, 0.12, 0.35, rand.New(rand.NewSource(seed)))
		}},
		{"geometric", 21, func() (*graph.Dual, error) {
			return graph.Geometric(21, 0.28, 0.7, rand.New(rand.NewSource(seed)))
		}},
		{"pa", 21, func() (*graph.Dual, error) {
			return graph.PreferentialAttachment(21, 3, 0.5, rand.New(rand.NewSource(seed)))
		}},
		{"grid", 21, func() (*graph.Dual, error) {
			return graph.Grid(5, 5, 2, 0.3, rand.New(rand.NewSource(seed)))
		}},
	}
	for _, c := range cases {
		got, err := Topology(c.name, c.n, seed, nil)
		if err != nil {
			t.Fatalf("Topology(%q): %v", c.name, err)
		}
		want, err := c.want()
		if err != nil {
			t.Fatalf("reference %q: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Topology(%q) with default params differs from the historical construction", c.name)
		}
	}
}

func TestUnknownNameSuggestions(t *testing.T) {
	_, err := Topology("geometirc", 9, 1, nil)
	var unk *ErrUnknownName
	if !errors.As(err, &unk) {
		t.Fatalf("error %v is not *ErrUnknownName", err)
	}
	if unk.Kind != "topology" || unk.Name != "geometirc" {
		t.Fatalf("wrong error fields: %+v", unk)
	}
	if len(unk.Suggestions) == 0 || unk.Suggestions[0] != "geometric" {
		t.Fatalf("suggestions = %v, want geometric first", unk.Suggestions)
	}
	if !strings.Contains(err.Error(), `did you mean "geometric"?`) ||
		!strings.Contains(err.Error(), "clique-bridge") {
		t.Fatalf("error text missing suggestion or valid names: %v", err)
	}
	for _, call := range []func() error{
		func() error { _, err := Algorithm("harmonix", 9, nil); return err },
		func() error { _, err := Adversary("greddy", nil); return err },
	} {
		if err := call(); !errors.As(err, &unk) {
			t.Errorf("error %v is not *ErrUnknownName", err)
		}
	}
}

// TestEmptyNameIsMissingNotSuggested: "" must read as a missing field with
// no nonsense suggestions (every name is edit-distance-close to "").
func TestEmptyNameIsMissingNotSuggested(t *testing.T) {
	_, err := Topology("", 9, 1, nil)
	var unk *ErrUnknownName
	if !errors.As(err, &unk) {
		t.Fatalf("error %v is not *ErrUnknownName", err)
	}
	if len(unk.Suggestions) != 0 {
		t.Fatalf("empty name got suggestions %v", unk.Suggestions)
	}
	if !strings.HasPrefix(err.Error(), "missing topology name") {
		t.Fatalf("error text = %v, want a missing-name message", err)
	}
}

func TestUnknownAndMistypedParamsRejected(t *testing.T) {
	if _, err := Topology("geometric", 9, 1, Params{"radius": 0.3}); err == nil ||
		!strings.Contains(err.Error(), "r-reliable") {
		t.Fatalf("unknown param error should list accepted params, got %v", err)
	}
	if _, err := Topology("grid", 9, 1, Params{"reach": 1.5}); err == nil ||
		!strings.Contains(err.Error(), "integer") {
		t.Fatalf("non-integral int param should fail, got %v", err)
	}
	if err := ValidateAlgorithm("uniform", Params{"p": "high"}); err == nil {
		t.Fatal("string for float param should fail validation")
	}
	if err := ValidateTopology("layered-random", Params{"layers": []any{2.0, 3.0}}); err != nil {
		t.Fatalf("JSON-decoded layer list should validate: %v", err)
	}
}

// TestGridRowsColsOverride checks the explicit-shape escape hatch and its
// paired-flags guard.
func TestGridRowsColsOverride(t *testing.T) {
	d, err := Topology("grid", 0, 3, Params{"rows": 2, "cols": 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 10 {
		t.Fatalf("2x5 grid built %d nodes", d.N())
	}
	if _, err := Topology("grid", 9, 3, Params{"rows": 2}); err == nil {
		t.Fatal("rows without cols must fail")
	}
}

func TestLayeredTopologiesDeriveN(t *testing.T) {
	d, err := Topology("layered-random", 999, 1, Params{"layers": []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 6 {
		t.Fatalf("layered-random [2,3] built %d nodes, want 6", d.N())
	}
}

func TestHarmonicExplicitT(t *testing.T) {
	alg, err := Algorithm("harmonic", 9, Params{"t": 13})
	if err != nil {
		t.Fatal(err)
	}
	if got := alg.Name(); got != "harmonic(T=13)" {
		t.Fatalf("explicit T name = %q", got)
	}
}

func TestDeltaSelectDefaultsToTrivialBound(t *testing.T) {
	alg, err := Algorithm("delta-select", 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	var _ sim.Algorithm = alg
}

// TestWriteListGolden pins the shared -list rendering: every entry line and
// every parameter doc line, in sorted section order.
func TestWriteListGolden(t *testing.T) {
	var sb strings.Builder
	WriteList(&sb)
	out := sb.String()
	for _, want := range []string{
		"topologies:\n",
		"algorithms:\n",
		"adversaries:\n",
		"  geometric          unit-square placement: short links reliable, longer ones unreliable; scales to 100k+ nodes\n",
		"      r-reliable       float  links shorter than this are reliable (default 0.28)\n",
		"  harmonic           randomized Harmonic Broadcast, O(n log² n) w.h.p. (Section 7)\n",
		"      p                float  per-edge per-round delivery probability (default 0.25)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteList output missing %q\n---\n%s", want, out)
		}
	}
	// Every registered name must appear.
	for _, es := range [][]Entry{Topologies(), Algorithms(), Adversaries()} {
		for _, e := range es {
			if !strings.Contains(out, "  "+e.Name) {
				t.Errorf("WriteList output missing entry %q", e.Name)
			}
		}
	}
}

// TestLookupErrors pins the exact error text of every kind's build and
// Validate* paths for an unknown name, an unknown parameter and a mistyped
// parameter. The texts reach Spec validation, both CLIs and dgsimd Submit
// callers, so they must not drift.
func TestLookupErrors(t *testing.T) {
	base := scheduleBase(t)
	type call func(name string, p Params) error
	kinds := map[string]struct{ build, validate call }{
		"topology": {
			func(name string, p Params) error { _, err := Topology(name, 9, 1, p); return err },
			ValidateTopology,
		},
		"algorithm": {
			func(name string, p Params) error { _, err := Algorithm(name, 9, p); return err },
			ValidateAlgorithm,
		},
		"adversary": {
			func(name string, p Params) error { _, err := Adversary(name, p); return err },
			ValidateAdversary,
		},
		"schedule": {
			func(name string, p Params) error { _, err := Schedule(name, base, p); return err },
			ValidateSchedule,
		},
	}
	cases := []struct {
		kind, name string
		p          Params
		want       string
		unknown    bool // the error is an *ErrUnknownName
	}{
		{"topology", "geometirc", nil, `unknown topology "geometirc" (did you mean "geometric"?); valid topology names: clique-bridge, complete, complete-layered, directed-layered, geometric, grid, layered-random, line, pa, random, star, tree`, true},
		{"topology", "", nil, `missing topology name; valid topology names: clique-bridge, complete, complete-layered, directed-layered, geometric, grid, layered-random, line, pa, random, star, tree`, true},
		{"topology", "geometric", Params{"radius": 0.3}, `topology "geometric": unknown parameter "radius" (accepted: r-reliable, r-unreliable)`, false},
		{"topology", "grid", Params{"reach": 1.5}, `topology parameter "reach": want an integer, got 1.5`, false},
		{"topology", "layered-random", Params{"layers": []any{1.0, "x"}}, `topology parameter "layers"[1]: want an integer, got x`, false},
		{"topology", "layered-random", Params{"layers": "x"}, `topology parameter "layers": want a list of integers, got string`, false},
		{"algorithm", "harmonix", nil, `unknown algorithm "harmonix" (did you mean "harmonic"?); valid algorithm names: decay, delta-select, harmonic, round-robin, strong-select, uniform`, true},
		{"algorithm", "uniform", Params{"q": 1}, `algorithm "uniform": unknown parameter "q" (accepted: p)`, false},
		{"algorithm", "harmonic", Params{"t": "x"}, `algorithm parameter "t": want an integer, got string`, false},
		{"algorithm", "uniform", Params{"p": "high"}, `algorithm parameter "p": want a number, got string`, false},
		{"adversary", "greddy", nil, `unknown adversary "greddy" (did you mean "greedy"?); valid adversary names: adaptive, benign, full, greedy, random`, true},
		{"adversary", "random", Params{"prob": 0.5}, `adversary "random": unknown parameter "prob" (accepted: p)`, false},
		{"adversary", "adaptive", Params{"horizon": 2.5}, `adversary parameter "horizon": want an integer, got 2.5`, false},
		{"adversary", "benign", Params{"p": 0.5}, `adversary "benign": unknown parameter "p" (accepted: none)`, false},
		{"schedule", "churm", nil, `unknown schedule "churm" (did you mean "churn"?); valid schedule names: churn, fade, static, waypoint`, true},
		{"schedule", "churn", Params{"p-dwon": 0.5}, `schedule "churn": unknown parameter "p-dwon" (accepted: epoch-len, p-down)`, false},
		{"schedule", "waypoint", Params{"leg-epochs": "fast"}, `schedule parameter "leg-epochs": want an integer, got string`, false},
		// Several bad keys: the first in sorted order is reported, every
		// time ("r-reliable" sorts before "radius").
		{"topology", "geometric", Params{"radius": 0.3, "r-reliable": "x"}, `topology parameter "r-reliable": want a number, got string`, false},
		{"schedule", "churn", Params{"p-down": "x", "epoch-len": 0.5, "zz": 1}, `schedule parameter "epoch-len": want an integer, got 0.5`, false},
	}
	for _, c := range cases {
		k := kinds[c.kind]
		for path, f := range map[string]call{"build": k.build, "validate": k.validate} {
			for range 20 { // map order must not leak into the message
				err := f(c.name, c.p)
				if err == nil || err.Error() != c.want {
					t.Fatalf("%s %s %q %v: error %v\nwant %s", c.kind, path, c.name, c.p, err, c.want)
				}
				var unk *ErrUnknownName
				if errors.As(err, &unk) != c.unknown {
					t.Fatalf("%s %s %q: *ErrUnknownName = %v, want %v", c.kind, path, c.name, !c.unknown, c.unknown)
				}
			}
		}
	}
	for _, info := range []func(string) (Entry, bool){TopologyInfo, AlgorithmInfo, AdversaryInfo, schedules.info} {
		if e, ok := info("nope"); ok || e.Name != "" {
			t.Fatalf("info of an unknown name = %+v, %v", e, ok)
		}
	}
}
