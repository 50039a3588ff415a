package main

import (
	"fmt"
	"reflect"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
)

// TestWrappersAreTransparent checks that tracing changes nothing the
// simulator computes: wrapped and unwrapped runs return identical results
// (or identical errors) for every registry algorithm against every kind of
// adversary, on static, churn and waypoint schedules.
func TestWrappersAreTransparent(t *testing.T) {
	adversaries := []spec.Choice{
		{Name: "benign"}, {Name: "greedy"}, {Name: "random"}, {Name: "full"},
		// A shallow search keeps the planner fast on moving networks; its
		// strength does not matter here, only that it forks per run.
		{Name: "adaptive", Params: map[string]any{"search-rounds": 6}},
	}
	schedules := []spec.Choice{
		{Name: "static"},
		{Name: "churn", Params: map[string]any{"epoch-len": 2, "p-down": 0.3}},
		{Name: "waypoint", Params: map[string]any{"epoch-len": 2, "leg-epochs": 1}},
	}
	completed := map[string]int{} // runs that finished without error, per adversary
	for _, alg := range registry.Algorithms() {
		for _, adv := range adversaries {
			for _, sched := range schedules {
				t.Run(alg.Name+"/"+adv.Name+"/"+sched.Name, func(t *testing.T) {
					sc := spec.Scenario{
						Topology:  spec.Choice{Name: "clique-bridge"},
						Algorithm: spec.Choice{Name: alg.Name},
						Adversary: adv,
						Schedule:  sched,
						N:         5,
						Rule:      sim.CR4,
						Start:     sim.AsyncStart,
						Seed:      7,
					}
					b, err := sc.Build()
					if err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 3; trial++ {
						cfg := b.Cfg
						cfg.Seed = engine.SeedFor(b.Cfg.Seed, trial)
						want, wantErr := sim.RunDynamic(b.Sched, b.Alg, b.Adv, cfg)
						tr := newTracer()
						got, gotErr := sim.RunDynamic(tr.schedule(b.Sched), tr.algorithm(b.Alg), tr.adversary(b.Adv), cfg)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("trial %d: traced error %v, untraced %v", trial, gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: traced result %+v, untraced %+v", trial, got, want)
						}
						if wantErr != nil {
							continue
						}
						completed[adv.Name]++
						if tr.decide.calls == 0 || tr.newProc.calls != int64(b.Net.N()) {
							t.Fatalf("trial %d: counted %d Decide and %d NewProcess calls", trial, tr.decide.calls, tr.newProc.calls)
						}
					}
				})
			}
		}
	}
	for _, adv := range adversaries {
		if completed[adv.Name] == 0 {
			t.Errorf("%s: no run completed, so only the error path was compared", adv.Name)
		}
	}
}

// TestAdversaryWrapperMirrorsOptionalInterfaces checks that the wrapper
// offers the simulator's fast paths exactly when the wrapped adversary
// does, so that a map-only adversary is not moved onto the buffered path.
func TestAdversaryWrapperMirrorsOptionalInterfaces(t *testing.T) {
	for _, name := range []string{"benign", "greedy", "random", "full", "adaptive"} {
		inner, err := registry.Adversary(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := newTracer().adversary(inner)
		_, innerBuffered := inner.(sim.BufferedDeliverer)
		_, innerForks := inner.(sim.RunForker)
		_, buffered := wrapped.(sim.BufferedDeliverer)
		_, forks := wrapped.(sim.RunForker)
		if buffered != innerBuffered || forks != innerForks {
			t.Errorf("%s: wrapper buffered=%v forks=%v, adversary buffered=%v forks=%v",
				name, buffered, forks, innerBuffered, innerForks)
		}
	}
}
