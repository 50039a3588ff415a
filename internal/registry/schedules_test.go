package registry

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dualgraph/internal/graph"
)

func scheduleBase(t *testing.T) *graph.Dual {
	t.Helper()
	d, err := graph.RandomDual(16, 0.25, 0.4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryScheduleBuildsWithDefaults: every registered schedule must
// construct over a generic base with its documented defaults and produce a
// few valid epochs — the bare-name-is-runnable property the other three
// registries already guarantee.
func TestEveryScheduleBuildsWithDefaults(t *testing.T) {
	base := scheduleBase(t)
	for _, e := range Schedules() {
		s, err := Schedule(e.Name, base, nil)
		if err != nil {
			t.Fatalf("schedule %q with defaults: %v", e.Name, err)
		}
		if s.N() != base.N() {
			t.Fatalf("schedule %q: N = %d, want %d", e.Name, s.N(), base.N())
		}
		for epoch := 0; epoch < 3; epoch++ {
			if _, err := s.Epoch(epoch, 5); err != nil {
				t.Fatalf("schedule %q epoch %d: %v", e.Name, epoch, err)
			}
		}
	}
}

// TestStaticScheduleIsDefaultBehaviour: the "static" entry wraps the base
// network itself, with epoch length 0 — the exact pre-dynamics semantics.
func TestStaticScheduleIsDefaultBehaviour(t *testing.T) {
	base := scheduleBase(t)
	s, err := Schedule("static", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.EpochLength() != 0 {
		t.Fatalf("static epoch length = %d, want 0", s.EpochLength())
	}
	d, err := s.Epoch(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d != base {
		t.Fatal("static schedule does not return the base network")
	}
}

// TestScheduleUnknownNameSuggests: schedule lookups fail with the same
// typed, suggestion-bearing error as the other registries.
func TestScheduleUnknownNameSuggests(t *testing.T) {
	base := scheduleBase(t)
	_, err := Schedule("churm", base, nil)
	var unknown *ErrUnknownName
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *ErrUnknownName", err)
	}
	if unknown.Kind != "schedule" {
		t.Fatalf("kind = %q, want schedule", unknown.Kind)
	}
	if len(unknown.Suggestions) == 0 || unknown.Suggestions[0] != "churn" {
		t.Fatalf("suggestions = %v, want churn first", unknown.Suggestions)
	}
	if !strings.Contains(err.Error(), "valid schedule names") {
		t.Fatalf("error text %q missing the valid-name list", err)
	}
	if err := ValidateSchedule("nope", nil); err == nil {
		t.Fatal("ValidateSchedule accepted an unknown name")
	}
}

// TestScheduleParamValidation: unknown keys and ill-typed values are
// rejected by the schema before any construction happens.
func TestScheduleParamValidation(t *testing.T) {
	base := scheduleBase(t)
	if _, err := Schedule("churn", base, Params{"p-dwon": 0.5}); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("churn accepted a typoed parameter: %v", err)
	}
	if _, err := Schedule("churn", base, Params{"epoch-len": 2.5}); err == nil || !strings.Contains(err.Error(), "integer") {
		t.Fatalf("churn accepted a fractional epoch-len: %v", err)
	}
	if err := ValidateSchedule("waypoint", Params{"leg-epochs": "fast"}); err == nil {
		t.Fatal("waypoint accepted a string leg-epochs")
	}
	// Out-of-range values pass the schema but fail the constructor.
	if _, err := Schedule("churn", base, Params{"p-down": 1.5}); err == nil {
		t.Fatal("churn accepted p-down > 1")
	}
}

// TestScheduleInfoAndList: introspection covers the schedule registry like
// the other three.
func TestScheduleInfoAndList(t *testing.T) {
	e, ok := schedules.info("churn")
	if !ok {
		t.Fatal("schedules.info(churn) missing")
	}
	if !e.AcceptsParam("p-down") || e.AcceptsParam("p-fade") {
		t.Fatalf("churn schema wrong: %+v", e.Params)
	}
	var sb strings.Builder
	WriteList(&sb)
	for _, want := range []string{"schedules:", "  churn", "  fade", "  waypoint", "  static"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteList missing %q", want)
		}
	}
	var md strings.Builder
	WriteMarkdown(&md)
	for _, want := range []string{"## schedules", "### `churn`", "| `p-down` | float | `0.2` |", "## topologies", "### `geometric`"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("WriteMarkdown missing %q", want)
		}
	}
}
