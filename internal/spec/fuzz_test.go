package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// FuzzScenarioUnmarshal hardens the scenario wire format: arbitrary bytes
// must either fail to decode with an ordinary error or produce a value that
// uses only known keys, validates without panicking and round-trips through
// JSON unchanged.
func FuzzScenarioUnmarshal(f *testing.F) {
	seedDocs := []string{
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
	for _, doc := range seedDocs {
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
