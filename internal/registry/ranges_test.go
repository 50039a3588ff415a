package registry

import "testing"

// TestParamRanges builds every range-checked parameter just outside and
// exactly on its documented bounds. Spec files and dgsimd jobs reach these
// constructors with outside input, so an out-of-range value must fail the
// build instead of running a meaningless cell.
func TestParamRanges(t *testing.T) {
	base := scheduleBase(t)
	build := map[string]func(name string, p Params) error{
		"topology": func(name string, p Params) error {
			_, err := Topology(name, 9, 1, p)
			return err
		},
		"algorithm": func(name string, p Params) error {
			_, err := Algorithm(name, 9, p)
			return err
		},
		"adversary": func(name string, p Params) error {
			_, err := Adversary(name, p)
			return err
		},
		"schedule": func(name string, p Params) error {
			_, err := Schedule(name, base, p)
			return err
		},
	}
	cases := []struct {
		kind, name string
		p          Params
		ok         bool
	}{
		{"topology", "grid", Params{"p": 2.0}, false},
		{"topology", "grid", Params{"p": -0.5}, false},
		{"topology", "grid", Params{"p": 0.0}, true},
		{"topology", "grid", Params{"p": 1.0}, true},
		{"topology", "random", Params{"p-reliable": -1.0}, false},
		{"topology", "random", Params{"p-reliable": 2.0}, false},
		{"topology", "random", Params{"p-unreliable": -1.0}, false},
		{"topology", "random", Params{"p-unreliable": 2.0}, false},
		{"topology", "random", Params{"p-reliable": 0.0, "p-unreliable": 0.0}, true},
		{"topology", "random", Params{"p-reliable": 1.0, "p-unreliable": 1.0}, true},
		{"topology", "geometric", Params{"r-reliable": -1.0}, false},
		{"topology", "geometric", Params{"r-reliable": 0.0}, true},
		{"topology", "geometric", Params{"r-reliable": 1.0, "r-unreliable": 1.0}, true},
		{"topology", "pa", Params{"unreliable-frac": 2.0}, false},
		{"topology", "pa", Params{"unreliable-frac": 0.0}, true},
		{"topology", "pa", Params{"unreliable-frac": 1.0}, true},
		{"algorithm", "harmonic", Params{"t": -1}, false},
		{"algorithm", "harmonic", Params{"t": 0}, true},
		{"algorithm", "harmonic", Params{"t": 1}, true},
		{"algorithm", "delta-select", Params{"delta": -2}, false},
		{"algorithm", "delta-select", Params{"delta": 1}, true},
		{"adversary", "random", Params{"p": 2.0}, false},
		{"adversary", "random", Params{"p": 0.0}, true},
		{"adversary", "random", Params{"p": 1.0}, true},
		{"schedule", "waypoint", Params{"r-reliable": -1.0}, false},
		{"schedule", "waypoint", Params{"r-reliable": 0.0}, true},
		{"schedule", "waypoint", Params{"r-reliable": 1.0, "r-unreliable": 1.0}, true},
		{"schedule", "churn", Params{"p-down": 2.0}, false},
		{"schedule", "churn", Params{"p-down": 0.0}, true},
		{"schedule", "churn", Params{"p-down": 1.0}, true},
	}
	for _, c := range cases {
		err := build[c.kind](c.name, c.p)
		if c.ok && err != nil {
			t.Errorf("%s %s %v: in-range value rejected: %v", c.kind, c.name, c.p, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s %s %v: out-of-range value built", c.kind, c.name, c.p)
		}
	}
}
