package spec

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
)

// TestEveryRegisteredNameConstructsAtSmallN is the Spec-layer property test:
// every topology × the default algorithm/adversary, every algorithm, and
// every adversary must build through the Scenario path at small n.
// mustBuild materializes s or fails the test.
func mustBuild(t *testing.T, s Scenario) *Built {
	t.Helper()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEveryRegisteredNameConstructsAtSmallN(t *testing.T) {
	for _, e := range registry.Topologies() {
		s, err := New(WithTopology(e.Name, nil), WithN(9), WithSeed(3))
		if err != nil {
			t.Errorf("topology %q: New: %v", e.Name, err)
			continue
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("topology %q: Build: %v", e.Name, err)
		}
	}
	for _, e := range registry.Algorithms() {
		s, err := New(WithAlgorithm(e.Name, nil), WithN(9), WithSeed(3))
		if err != nil {
			t.Errorf("algorithm %q: New: %v", e.Name, err)
			continue
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("algorithm %q: Build: %v", e.Name, err)
		}
	}
	for _, e := range registry.Adversaries() {
		s, err := New(WithAdversary(e.Name, nil), WithN(9), WithSeed(3))
		if err != nil {
			t.Errorf("adversary %q: New: %v", e.Name, err)
			continue
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("adversary %q: Build: %v", e.Name, err)
		}
	}
}

// TestJSONRoundTripRunsBitIdentical is the serialization contract: a
// Scenario marshaled, unmarshaled, and run must produce exactly the results
// of the original value's, trial for trial.
func TestJSONRoundTripRunsBitIdentical(t *testing.T) {
	s, err := New(
		WithTopology("geometric", registry.Params{"r-reliable": 0.3}),
		WithN(17),
		WithAlgorithm("harmonic", nil),
		WithAdversary("random", registry.Params{"p": 0.6}),
		WithCollisionRule(sim.CR4),
		WithStart(sim.AsyncStart),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
	want, err := engine.Map(context.Background(), 6, engine.Config{Workers: 2}, mustBuild(t, s).Execute)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Map(context.Background(), 6, engine.Config{Workers: 3}, mustBuild(t, back).Execute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a JSON round trip differ from the original scenario's")
	}
	// And the round-tripped value must re-marshal to the same bytes.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshal drifted:\n%s\n%s", blob, blob2)
	}
}

// TestScenarioMatchesPositionalPath pins the Spec path against the
// historical positional construction: same constructors, same seeds, same
// results.
func TestScenarioMatchesPositionalPath(t *testing.T) {
	s, err := New(
		WithTopology("clique-bridge", nil),
		WithN(9),
		WithAlgorithm("harmonic", nil),
		WithAdversary("greedy", nil),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	positional := engine.Trial{Net: b.Net, Alg: b.Alg, Adv: b.Adv,
		Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 2}}
	want, err := engine.Map(context.Background(), 8, engine.Config{Workers: 2}, positional.Execute)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Map(context.Background(), 8, engine.Config{Workers: 1}, b.Execute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Built trials differ from the positional engine path")
	}
}

func TestJSONEnumEncodings(t *testing.T) {
	s := Default()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule":"CR4"`, `"start":"async"`, `"name":"clique-bridge"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("marshaled scenario missing %s: %s", want, blob)
		}
	}
	var back Scenario
	if err := json.Unmarshal([]byte(`{"topology":{"name":"line"},"algorithm":{"name":"round-robin"},
		"adversary":{"name":"benign"},"n":5,"rule":3,"start":"sync","seed":1}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.Rule != sim.CR3 || back.Start != sim.SyncStart {
		t.Fatalf("numeric rule / named start decoded wrong: %+v", back)
	}
	if err := json.Unmarshal([]byte(`{"rule":"CR9"}`), &back); err == nil {
		t.Fatal("bad rule name must fail to decode")
	}
}

func TestValidationFailsLoudly(t *testing.T) {
	_, err := New(WithTopology("geometirc", nil))
	var unk *registry.ErrUnknownName
	if !errors.As(err, &unk) {
		t.Fatalf("want *registry.ErrUnknownName, got %v", err)
	}
	if _, err := New(WithN(0)); err == nil {
		t.Fatal("n=0 must fail validation")
	}
	if _, err := New(WithCollisionRule(9)); err == nil {
		t.Fatal("rule 9 must fail validation")
	}
	if _, err := New(WithAlgorithm("uniform", registry.Params{"q": 1})); err == nil {
		t.Fatal("unknown algorithm param must fail validation")
	}
	var zero Scenario
	if err := zero.Validate(); err == nil {
		t.Fatal("the zero Scenario must not validate")
	}
}

func TestBuildUsesBuiltNetworkSize(t *testing.T) {
	// A structural generator builds a different size than requested; the
	// algorithm must be constructed for the built size.
	s, err := New(
		WithTopology("layered-random", registry.Params{"layers": []int{3, 3, 3}}),
		WithN(999),
		WithAlgorithm("strong-select", nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Net.N() != 10 {
		t.Fatalf("layered-random [3,3,3] built %d nodes", b.Net.N())
	}
	res, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("strong select on the 10-node layered network did not complete")
	}
}
