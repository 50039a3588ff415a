package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dualgraph/internal/engine"
)

// checkKnownKeys asserts that every object key in the decoded document raw
// names a JSON field of typ, recursing through nested structs and slices of
// structs (scenario, choices) but not into maps (registry params, which the
// registry validates). Keys match case-insensitively, as encoding/json
// matches them.
func checkKnownKeys(t *testing.T, raw any, typ reflect.Type, path string) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		obj, ok := raw.(map[string]any)
		if !ok {
			return
		}
	keys:
		for key, val := range obj {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if name != "" && name != "-" && strings.EqualFold(name, key) {
					checkKnownKeys(t, val, f.Type, path+"."+key)
					continue keys
				}
			}
			t.Fatalf("accepted a document with unknown key %s.%s", path, key)
		}
	case reflect.Slice:
		if arr, ok := raw.([]any); ok {
			for _, el := range arr {
				checkKnownKeys(t, el, typ.Elem(), path+"[]")
			}
		}
	}
}

// acceptedKeysKnown decodes data generically and checks it against typ's
// field names: an accepted document may use known keys only.
func acceptedKeysKnown(t *testing.T, data []byte, typ reflect.Type) {
	t.Helper()
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("accepted document is not valid JSON: %v", err)
	}
	checkKnownKeys(t, raw, typ, "$")
}

// scenarioSeedDocs seeds the corpus of both scenario fuzz targets.
var scenarioSeedDocs = []string{
	`{}`,
	`{"version":1,"topology":{"name":"clique-bridge"},"algorithm":{"name":"round-robin"},"adversary":{"name":"greedy"},"n":9,"rule":"CR1","start":"sync","seed":3}`,
	`{"topology":{"name":"geometric","params":{"radius":0.3}},"n":65,"max_rounds":500}`,
	`{"schedule":{"name":"churn","params":{"epoch-len":4,"p-down":0.2}}}`,
	`{"version":99}`,
	`{"rule":"CR7"}`,
	`{"n":"nine"}`,
	`{"n":9,"max-rounds":1}`,
	`{"topology":{"nmae":"line"}}`,
	`{"N":9,"Max_Rounds":3}`,
}

// FuzzScenarioUnmarshal hardens the scenario wire format: arbitrary bytes
// must either fail to decode with an ordinary error or produce a value that
// uses only known keys, validates without panicking and round-trips through
// JSON unchanged.
func FuzzScenarioUnmarshal(f *testing.F) {
	for _, doc := range scenarioSeedDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Scenario
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		acceptedKeysKnown(t, data, reflect.TypeFor[Scenario]())
		// Validate must not panic on any decodable document; only valid
		// scenarios owe us a JSON round trip (e.g. the zero collision rule
		// is invalid and refuses to marshal, by design).
		if s.Validate() != nil {
			return
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid scenario failed to marshal: %v", err)
		}
		var again Scenario
		if err := json.Unmarshal(blob, &again); err != nil {
			t.Fatalf("re-decode of marshalled scenario failed: %v", err)
		}
		// The serialized form must be a fixed point (an empty params map
		// legitimately collapses to nil under omitempty, so compare the
		// canonical JSON, not the Go values).
		blob2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("scenario serialization is not a fixed point:\n 1st %s\n 2nd %s", blob, blob2)
		}
	})
}

// FuzzSweepUnmarshal hardens the sweep wire format: any decodable document
// must use only known keys, expand through Cells without panicking (errors
// are fine — duplicate labels, bad versions, negative trials are all typed
// rejections) and round-trip through JSON unchanged.
func FuzzSweepUnmarshal(f *testing.F) {
	seedDocs := []string{
		`{}`,
		`{"base":{"n":17}}`,
		`{"base":{"seed":6},"topologies":[{"name":"clique-bridge"},{"name":"line"}],"algorithms":[{"name":"harmonic"},{"name":"round-robin"}],"ns":[9,17],"trials":10}`,
		`{"adversaries":[{"name":"greedy"},{"name":"adaptive","params":{"horizon":2}}],"seeds":[1,2,3]}`,
		`{"schedules":[{"name":"static"},{"name":"fade","params":{"p-fade":0.5}}],"rules":["CR1","CR4"]}`,
		`{"seeds":[1,1]}`,
		`{"trials":-4}`,
		`{"version":2}`,
		`{"base":{"n":9,"max-rounds":1},"trials":1}`,
		`{"base":{"n":9},"trial":5}`,
		`{"schedules":[{"name":"fade","parms":{"p-fade":0.5}}]}`,
	}
	for _, doc := range seedDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sw Sweep
		if err := json.Unmarshal(data, &sw); err != nil {
			return
		}
		acceptedKeysKnown(t, data, reflect.TypeFor[Sweep]())
		// Cells materializes the whole Cartesian product; cap the grid so a
		// fuzzer-constructed product of long axes cannot balloon the test.
		product := 1
		for _, n := range []int{
			len(sw.Topologies), len(sw.Algorithms), len(sw.Adversaries),
			len(sw.Schedules), len(sw.Ns), len(sw.Rules), len(sw.Seeds),
		} {
			if n > 0 {
				product *= n
			}
			if product > 10000 {
				return
			}
		}
		// Cells must not panic on any decodable document; only sweeps that
		// expand cleanly owe us a JSON round trip (an invalid base rule,
		// for instance, refuses to marshal by design).
		if _, err := sw.Cells(); err != nil {
			return
		}
		blob, err := json.Marshal(sw)
		if err != nil {
			t.Fatalf("expandable sweep failed to marshal: %v", err)
		}
		var again Sweep
		if err := json.Unmarshal(blob, &again); err != nil {
			t.Fatalf("re-decode of marshalled sweep failed: %v", err)
		}
		blob2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("sweep serialization is not a fixed point:\n 1st %s\n 2nd %s", blob, blob2)
		}
	})
}

// FuzzScenarioBuildRun guards what a valid document runs, not only the
// document: any scenario that decodes onto Default and stays small must
// build and run to a result or an ordinary error. A *engine.TrialPanic fails
// the target, so Run's panic containment cannot hide a crash.
func FuzzScenarioBuildRun(f *testing.F) {
	for _, doc := range scenarioSeedDocs {
		f.Add([]byte(doc))
	}
	for _, doc := range []string{
		`{"topology":{"name":"grid","params":{"rows":3,"cols":4}},"algorithm":{"name":"uniform"},"adversary":{"name":"random"},"n":9,"schedule":{"name":"waypoint"}}`,
		`{"topology":{"name":"layered-random","params":{"layers":[2,3]}},"algorithm":{"name":"strong-select"},"adversary":{"name":"adaptive"},"n":1,"rule":"CR1"}`,
		`{"topology":{"name":"pa"},"algorithm":{"name":"delta-select"},"adversary":{"name":"full"},"n":16,"start":"sync","schedule":{"name":"fade"}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := Default()
		if err := json.Unmarshal(data, &s); err != nil || tooBig(s) {
			return
		}
		b, err := s.Build()
		if err != nil {
			return
		}
		if b.Cfg.MaxRounds == 0 || b.Cfg.MaxRounds > 2000 {
			b.Cfg.MaxRounds = 2000
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := b.Run(ctx)
		if p := (*engine.TrialPanic)(nil); errors.As(err, &p) {
			t.Fatalf("%s: %v\n%s", s.Label(), p, p.Stack)
		}
		if (res == nil) == (err == nil) {
			t.Fatalf("%s: Run = %v, %v; want exactly one of a result and an error", s.Label(), res, err)
		}
	})
}

// tooBig reports whether s asks for more than a fuzz input should run: more
// than 16 nodes, or a numeric parameter above 64 in magnitude. A layer
// list's sum and a grid's rows×cols size the network, so they obey the node
// cap too.
func tooBig(s Scenario) bool {
	if s.N > 16 {
		return true
	}
	for _, c := range []Choice{s.Topology, s.Algorithm, s.Adversary, s.Schedule} {
		for key, v := range c.Params {
			switch x := v.(type) {
			case float64:
				if math.Abs(x) > 64 || c.Name == "grid" && (key == "rows" || key == "cols") && math.Abs(x) > 4 {
					return true
				}
			case []any:
				sum := 0.0
				for _, el := range x {
					if f, ok := el.(float64); ok {
						sum += math.Abs(f)
					}
				}
				if sum > 16 {
					return true
				}
			}
		}
	}
	return false
}
