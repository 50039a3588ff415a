package spec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/sim"
)

// mute is an algorithm whose processes never transmit, so a run on any
// network with more than one node lasts until MaxRounds. at is called with
// every round a process decides in.
type mute struct{ at func(round int) }

func (mute) Name() string { return "mute" }

func (m mute) NewProcess(int, int, *rand.Rand) sim.Process { return m }

func (mute) Start(int, bool) {}

func (m mute) Decide(round int) bool {
	m.at(round)
	return false
}

func (mute) Receive(int, sim.Reception) {}

func lineCell(t *testing.T) *Built {
	t.Helper()
	s, err := New(WithTopology("line", nil), WithN(4), WithSeed(42), WithMaxRounds(10_000))
	if err != nil {
		t.Fatal(err)
	}
	return mustBuild(t, s)
}

// TestBuiltRunStopsOnCancel: a run cancelled mid-flight stops within 64
// rounds of the cancel and returns ctx.Err() itself; a ctx that is done
// before the run starts fails it at once.
func TestBuiltRunStopsOnCancel(t *testing.T) {
	const cancelAt = 100
	b := lineCell(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	last := 0
	b.Alg = mute{at: func(round int) {
		if round == cancelAt {
			cancel()
		}
		last = round
	}}
	res, err := b.Run(ctx)
	if res != nil || err != context.Canceled {
		t.Fatalf("Run = %v, %v; want nil, context.Canceled", res, err)
	}
	if last < cancelAt || last > cancelAt+64 {
		t.Fatalf("run stopped at round %d, want within 64 rounds of %d", last, cancelAt)
	}

	last = 0
	if _, err := b.Run(ctx); err != context.Canceled || last != 0 {
		t.Fatalf("Run on a done ctx = %v after %d rounds; want context.Canceled before any", err, last)
	}
}

// TestBuiltRunContainsPanic: a panicking algorithm fails the run with a
// *engine.TrialPanic carrying the run's own seed, so the run replays.
func TestBuiltRunContainsPanic(t *testing.T) {
	b := lineCell(t)
	b.Alg = mute{at: func(round int) {
		if round == 3 {
			panic("boom")
		}
	}}
	_, err := b.Run(context.Background())
	var p *engine.TrialPanic
	if !errors.As(err, &p) {
		t.Fatalf("Run error %v is not a *engine.TrialPanic", err)
	}
	if p.Seed != b.Cfg.Seed || p.Trial != 0 || p.Value != "boom" {
		t.Fatalf("TrialPanic = {Trial %d, Seed %d, Value %v}; want {0, %d, boom}", p.Trial, p.Seed, p.Value, b.Cfg.Seed)
	}
}
