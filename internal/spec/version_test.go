package spec

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/engine"
)

// Absent and explicit-v1 version fields are accepted; unknown versions are
// rejected with the typed error, for both Scenario and Sweep documents.
func TestWireVersionGate(t *testing.T) {
	var sc Scenario
	if err := json.Unmarshal([]byte(`{"topology":{"name":"clique-bridge"},"algorithm":{"name":"harmonic"},"adversary":{"name":"greedy"},"n":17,"rule":"CR4","start":"async","seed":1}`), &sc); err != nil {
		t.Fatalf("versionless scenario: %v", err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("versionless scenario validate: %v", err)
	}

	var sw Sweep
	if err := json.Unmarshal([]byte(`{"version":1,"base":{"version":1,"n":17}}`), &sw); err != nil {
		t.Fatalf("explicit v1 sweep: %v", err)
	}

	var vErr *ErrUnsupportedVersion
	if err := json.Unmarshal([]byte(`{"version":2,"base":{"n":17}}`), &sw); !errors.As(err, &vErr) {
		t.Fatalf("v2 sweep: want *ErrUnsupportedVersion, got %v", err)
	} else if vErr.Kind != "sweep" || vErr.Got != 2 {
		t.Fatalf("v2 sweep error fields: %+v", vErr)
	}
	if err := json.Unmarshal([]byte(`{"base":{"version":7,"n":17}}`), &sw); !errors.As(err, &vErr) {
		t.Fatalf("v7 base scenario: want *ErrUnsupportedVersion, got %v", err)
	} else if vErr.Kind != "scenario" || vErr.Got != 7 {
		t.Fatalf("v7 scenario error fields: %+v", vErr)
	}

	// Programmatically built documents hit the same gate via Validate/Cells.
	bad := Default()
	bad.Version = 3
	if err := bad.Validate(); !errors.As(err, &vErr) {
		t.Fatalf("validate v3 scenario: want *ErrUnsupportedVersion, got %v", err)
	}
	if _, err := (Sweep{Version: 9, Base: Default()}).Cells(); !errors.As(err, &vErr) {
		t.Fatalf("cells of v9 sweep: want *ErrUnsupportedVersion, got %v", err)
	}
}

// misspelledSpecDocs are sweep documents with one misspelled key each: in
// the base scenario, at the sweep's top level, and inside a choice. Before
// the strict decode each ran silently with the default in its place.
var misspelledSpecDocs = map[string]string{
	"max-rounds": `{"base":{"n":9,"max-rounds":1},"trials":1}`,
	"trial":      `{"base":{"n":9},"trial":5}`,
	"nmae":       `{"base":{"n":9},"topologies":[{"nmae":"line"}]}`,
}

// Unknown field names are rejected, with the field named in the error, at
// every level of a scenario or sweep document.
func TestUnknownFieldsRejected(t *testing.T) {
	var sc Scenario
	err := json.Unmarshal([]byte(`{"n":9,"max-rounds":1}`), &sc)
	if err == nil || !strings.Contains(err.Error(), `"max-rounds"`) {
		t.Fatalf("scenario with max-rounds: err = %v, want one naming the field", err)
	}
	for field, doc := range misspelledSpecDocs {
		var sw Sweep
		err := json.Unmarshal([]byte(doc), &sw)
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Fatalf("%s: err = %v, want one naming %q", doc, err, field)
		}
	}
	// The correct spellings decode, and base inheritance still fills the
	// rest from Default.
	var sw Sweep
	if err := json.Unmarshal([]byte(`{"base":{"n":9,"max_rounds":1},"trials":5}`), &sw); err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.N, want.MaxRounds = 9, 1
	if sw.Trials != 5 || !reflect.DeepEqual(sw.Base, want) {
		t.Fatalf("decoded %+v, want base %+v with 5 trials", sw, want)
	}
	if err := sc.UnmarshalJSON([]byte(`{"n":9} {}`)); err == nil {
		t.Fatal("data after the document was accepted")
	}
}

// The version field must not change the serialized form of pre-versioning
// documents: a zero version marshals to no "version" key at all.
func TestVersionZeroMarshalsAbsent(t *testing.T) {
	b, err := json.Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"version"`) {
		t.Fatalf("zero-version scenario marshalled a version key: %s", b)
	}
	sb, err := json.Marshal(Sweep{Base: Default()})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(sb), `"version"`) {
		t.Fatalf("zero-version sweep marshalled a version key: %s", sb)
	}
}

// Duplicate axis values expand to colliding labels and must be rejected
// with the typed error naming both cells.
func TestDuplicateCellLabelsRejected(t *testing.T) {
	sw := Sweep{Base: Default(), Seeds: []int64{1, 2, 1}}
	_, err := sw.Cells()
	var dup *ErrDuplicateLabel
	if !errors.As(err, &dup) {
		t.Fatalf("want *ErrDuplicateLabel, got %v", err)
	}
	if dup.First != 0 || dup.Second != 2 || dup.Label != "seed=1" {
		t.Fatalf("collision fields: %+v", dup)
	}

	// Identical choices on a constructor axis collide too.
	sw = Sweep{Base: Default(), Adversaries: []Choice{{Name: "greedy"}, {Name: "greedy"}}}
	if _, err := sw.Cells(); !errors.As(err, &dup) {
		t.Fatalf("duplicate adversaries: want *ErrDuplicateLabel, got %v", err)
	}

	// Distinct values stay accepted.
	sw = Sweep{Base: Default(), Seeds: []int64{1, 2, 3}}
	if _, err := sw.Cells(); err != nil {
		t.Fatalf("distinct seeds: %v", err)
	}
}

// Stream must deliver cells in enumeration order, each equal to the
// matching entry of the returned grid, regardless of worker count.
func TestSweepStreamOrdered(t *testing.T) {
	sw := Sweep{
		Base:   Default(),
		Seeds:  []int64{1, 2, 3, 4, 5},
		Trials: 8,
	}
	sw.Base.N = 13
	for _, workers := range []int{1, 3, 8} {
		var streamed []CellResult
		grid, err := sw.Run(context.Background(), engine.Config{Workers: workers}, engine.StreamConfig{}, Hooks{
			OnCell: func(cr CellResult) {
				streamed = append(streamed, cr)
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(streamed) != len(grid.Cells) {
			t.Fatalf("workers=%d: streamed %d cells, grid has %d", workers, len(streamed), len(grid.Cells))
		}
		for i, cr := range streamed {
			if cr.Cell.Index != i {
				t.Fatalf("workers=%d: position %d delivered cell %d", workers, i, cr.Cell.Index)
			}
			if cr.Summary != grid.Cells[i].Summary {
				t.Fatalf("workers=%d: cell %d streamed summary is not the grid summary", workers, i)
			}
			if got, want := FormatSummary(cr.Summary), FormatSummary(grid.Cells[i].Summary); got != want {
				t.Fatalf("workers=%d: cell %d rendered summaries differ:\n%s\n%s", workers, i, got, want)
			}
		}
	}
}

// A cancelled Stream delivers a strict enumeration-order prefix.
func TestSweepStreamCancelDeliversPrefix(t *testing.T) {
	sw := Sweep{Base: Default(), Seeds: []int64{1, 2, 3, 4, 5, 6}, Trials: 16}
	sw.Base.N = 13
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamed []int
	_, err := sw.Run(ctx, engine.Config{Workers: 2}, engine.StreamConfig{}, Hooks{
		OnCell: func(cr CellResult) {
			streamed = append(streamed, cr.Cell.Index)
			if len(streamed) == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, c := range streamed {
		if c != i {
			t.Fatalf("delivered sequence %v is not an enumeration-order prefix", streamed)
		}
	}
	if len(streamed) < 2 {
		t.Fatalf("cancel fired after two deliveries, got %d", len(streamed))
	}
}
