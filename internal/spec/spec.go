// Package spec is the declarative experiment layer: a Scenario is one fully
// specified simulation cell (topology + algorithm + adversary + run config)
// as a plain, JSON-round-trippable value, and a Sweep is a whole Cartesian
// grid of them. Scenarios are built with functional options, validated once
// against the name registries (internal/registry), and executed on the
// deterministic trial engine — so a sweep serialized to a file, shipped to
// another machine, and run there produces bit-identical output.
//
// The positional call
//
//	net, _ := dualgraph.Geometric(65, 0.28, 0.7, rng)
//	alg, _ := dualgraph.NewHarmonicForN(65, 0.02)
//	res, _ := dualgraph.Run(net, alg, dualgraph.GreedyCollider{}, cfg)
//
// becomes
//
//	s, _ := spec.New(
//		spec.WithTopology("geometric", nil),
//		spec.WithN(65),
//		spec.WithAlgorithm("harmonic", nil),
//		spec.WithAdversary("greedy", nil),
//		spec.WithSeed(1),
//	)
//	b, _ := s.Build()
//	res, _ := b.Run(ctx)
//
// Topology dynamics are part of the same vocabulary: WithSchedule (or a
// "schedule" JSON block, or a Sweep's "schedules" axis) names an epoch
// schedule from the registry — node churn, link fading, waypoint mobility —
// and the scenario's runs become time-varying with no other change. The
// default "static" schedule reproduces fixed-topology behaviour exactly.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
)

// Choice names one registered constructor plus its parameters. A zero
// Params (or nil) means the registry defaults.
type Choice struct {
	// Name is the registry lookup key (e.g. "geometric").
	Name string `json:"name"`
	// Params overrides the constructor's default parameters.
	Params registry.Params `json:"params,omitempty"`
}

// label renders the choice for cell labels: the bare name, plus params only
// when overridden.
func (c Choice) label() string {
	if len(c.Params) == 0 {
		return c.Name
	}
	b, err := json.Marshal(c.Params)
	if err != nil {
		return c.Name
	}
	return c.Name + string(b)
}

// Scenario is one declarative simulation cell. The zero value is not
// runnable; build one with New (which applies defaults and validates) or
// unmarshal one from JSON and call Validate.
type Scenario struct {
	// Version is the wire-format version of the document (see WireVersion).
	// Zero means "not stated" and is read — and marshalled — exactly like
	// version 1, so pre-versioning files and their serialized forms are
	// unchanged; unknown versions are rejected when unmarshalling and when
	// validating.
	Version int `json:"version,omitempty"`
	// Topology names the network generator.
	Topology Choice `json:"topology"`
	// Algorithm names the broadcast algorithm.
	Algorithm Choice `json:"algorithm"`
	// Adversary names the adversary.
	Adversary Choice `json:"adversary"`
	// N is the requested network size. Generators with structural sizes
	// (grid, layered) may build a nearby size; the algorithm is always
	// constructed for the built size.
	N int `json:"n"`
	// Rule is the collision rule (JSON: "CR1".."CR4").
	Rule sim.CollisionRule `json:"rule"`
	// Start is the start rule (JSON: "sync"/"async").
	Start sim.StartRule `json:"start"`
	// Seed drives topology construction and the run (or, for sweeps, the
	// per-trial seed derivation).
	Seed int64 `json:"seed"`
	// MaxRounds caps the execution; 0 means the simulator default.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Schedule names the epoch schedule driving topology dynamics. The zero
	// Choice (and the explicit name "static") means the network never
	// changes, so pre-dynamics JSON files keep their exact meaning — and
	// marshalling a static scenario emits no schedule block at all
	// (omitzero), so their serialized form is unchanged too.
	Schedule Choice `json:"schedule,omitzero"`
}

// UnmarshalJSON decodes a scenario and rejects unknown wire-format versions
// up front with *ErrUnsupportedVersion, so a future-versioned file fails
// loudly instead of being silently misread. Unknown field names are
// rejected too (see decodeStrict). Fields already set on the receiver act
// as defaults (Sweep's base inheritance relies on this).
func (s *Scenario) UnmarshalJSON(b []byte) error {
	type alias Scenario // drop methods to avoid recursion
	tmp := alias(*s)
	if err := decodeStrict(b, &tmp); err != nil {
		return err
	}
	if err := checkVersion("scenario", tmp.Version); err != nil {
		return err
	}
	*s = Scenario(tmp)
	return nil
}

// decodeStrict decodes the single JSON value in b into v and rejects any
// object key that names no field, at every level below v except registry
// params (which the registry checks against each constructor's schema). A
// misspelled key such as "max-rounds" is an error naming the key, not a
// silently dropped field. The custom unmarshalers decode their own bytes,
// so a caller's DisallowUnknownFields never reaches them; they call this
// instead.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("spec: invalid data after the top-level JSON value")
	}
	return nil
}

// scheduleName resolves the schedule choice's name, defaulting to "static".
func (s Scenario) scheduleName() string {
	if s.Schedule.Name == "" {
		return "static"
	}
	return s.Schedule.Name
}

// Option mutates a Scenario under construction.
type Option func(*Scenario)

// WithTopology selects the named topology; p may be nil for defaults.
func WithTopology(name string, p registry.Params) Option {
	return func(s *Scenario) { s.Topology = Choice{Name: name, Params: p} }
}

// WithAlgorithm selects the named algorithm; p may be nil for defaults.
func WithAlgorithm(name string, p registry.Params) Option {
	return func(s *Scenario) { s.Algorithm = Choice{Name: name, Params: p} }
}

// WithAdversary selects the named adversary; p may be nil for defaults.
func WithAdversary(name string, p registry.Params) Option {
	return func(s *Scenario) { s.Adversary = Choice{Name: name, Params: p} }
}

// WithSchedule selects the named epoch schedule (topology dynamics); p may
// be nil for defaults. "static" restores the fixed-topology behaviour.
func WithSchedule(name string, p registry.Params) Option {
	return func(s *Scenario) { s.Schedule = Choice{Name: name, Params: p} }
}

// WithN sets the requested network size.
func WithN(n int) Option { return func(s *Scenario) { s.N = n } }

// WithCollisionRule sets the collision rule.
func WithCollisionRule(r sim.CollisionRule) Option { return func(s *Scenario) { s.Rule = r } }

// WithStart sets the start rule.
func WithStart(r sim.StartRule) Option { return func(s *Scenario) { s.Start = r } }

// WithSeed sets the base seed.
func WithSeed(seed int64) Option { return func(s *Scenario) { s.Seed = seed } }

// WithMaxRounds caps the execution length (0 = simulator default).
func WithMaxRounds(m int) Option { return func(s *Scenario) { s.MaxRounds = m } }

// Default is the scenario New starts from: the paper's headline cell
// (Harmonic Broadcast vs the greedy collider on a 33-node clique-bridge
// network under CR4/async, seed 1) — the same defaults cmd/dgsim has always
// used.
func Default() Scenario {
	// Schedule stays the zero Choice — static — so default scenarios
	// marshal without a schedule block, exactly like before the dynamics
	// layer existed.
	return Scenario{
		Topology:  Choice{Name: "clique-bridge"},
		Algorithm: Choice{Name: "harmonic"},
		Adversary: Choice{Name: "greedy"},
		N:         33,
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		Seed:      1,
	}
}

// New builds a Scenario from Default plus opts and validates it once.
func New(opts ...Option) (Scenario, error) {
	s := Default()
	for _, opt := range opts {
		opt(&s)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate checks the scenario without building it: all three names must
// resolve in their registries with well-typed parameters, and the scalar
// fields must be in range. Unknown names fail with *registry.ErrUnknownName,
// which lists the valid names and close suggestions.
func (s Scenario) Validate() error {
	if err := checkVersion("scenario", s.Version); err != nil {
		return err
	}
	if err := registry.ValidateTopology(s.Topology.Name, s.Topology.Params); err != nil {
		return err
	}
	if err := registry.ValidateAlgorithm(s.Algorithm.Name, s.Algorithm.Params); err != nil {
		return err
	}
	if err := registry.ValidateAdversary(s.Adversary.Name, s.Adversary.Params); err != nil {
		return err
	}
	if err := registry.ValidateSchedule(s.scheduleName(), s.Schedule.Params); err != nil {
		return err
	}
	if s.N < 1 {
		return fmt.Errorf("scenario: n must be >= 1, got %d", s.N)
	}
	if s.Rule < sim.CR1 || s.Rule > sim.CR4 {
		return fmt.Errorf("scenario: collision rule %d outside CR1..CR4", int(s.Rule))
	}
	if s.Start != sim.SyncStart && s.Start != sim.AsyncStart {
		return fmt.Errorf("scenario: start rule %d is neither sync nor async", int(s.Start))
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("scenario: max_rounds must be >= 0, got %d", s.MaxRounds)
	}
	return nil
}

// Label renders the scenario as a compact single-line identifier. The
// schedule appears only when dynamic, so static labels (the only kind that
// existed before the dynamics layer) are unchanged.
func (s Scenario) Label() string {
	l := fmt.Sprintf("topo=%s n=%d alg=%s adv=%s rule=%v start=%v seed=%d",
		s.Topology.label(), s.N, s.Algorithm.label(), s.Adversary.label(), s.Rule, s.Start, s.Seed)
	if name := s.scheduleName(); name != "static" {
		l += " sched=" + s.Schedule.label()
	}
	return l
}

// Built is a materialized Scenario: the constructed cell, ready to run.
// Building is deterministic — the same Scenario always materializes the
// same values. The embedded engine.Trial holds
//
//   - Net, the constructed network (its N() may differ from the requested
//     size for structural generators);
//   - Sched, the epoch schedule built over Net (a static scenario gets
//     graph.Static(Net), so every run path is uniformly dynamic);
//   - Alg, the algorithm, constructed for Net.N() processes;
//   - Adv, the adversary; and
//   - Cfg, the run configuration (callers may adjust it, e.g. MaxRounds,
//     before running).
//
// Run, promoted from engine.Trial, executes the built scenario once with
// exactly Cfg.Seed (not a derived trial seed), on Sched — which for the
// static schedule is exactly the fixed-network run.
type Built struct {
	// Scenario is the spec this was built from.
	Scenario Scenario
	engine.Trial
}

// Build validates and materializes the scenario.
func (s Scenario) Build() (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := registry.Topology(s.Topology.Name, s.N, s.Seed, s.Topology.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	alg, err := registry.Algorithm(s.Algorithm.Name, net.N(), s.Algorithm.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	adv, err := registry.Adversary(s.Adversary.Name, s.Adversary.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sched, err := registry.Schedule(s.scheduleName(), net, s.Schedule.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &Built{
		Scenario: s,
		Trial: engine.Trial{
			Net:   net,
			Sched: sched,
			Alg:   alg,
			Adv:   adv,
			Cfg: sim.Config{
				Rule:      s.Rule,
				Start:     s.Start,
				MaxRounds: s.MaxRounds,
				Seed:      s.Seed,
			},
		},
	}, nil
}
