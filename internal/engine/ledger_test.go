package engine_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dualgraph/internal/engine"
)

// foldUnits folds every unit of cells over trials with sc, keyed by unit.
func foldUnits(t *testing.T, cells []engine.Trial, trials int, sc engine.StreamConfig) map[engine.ShardKey]*engine.TrialSummary {
	t.Helper()
	out := map[engine.ShardKey]*engine.TrialSummary{}
	for c, cell := range cells {
		for s := 0; s < engine.Shards(trials); s++ {
			lo, hi := engine.ShardRange(trials, s)
			sum, err := engine.FoldShardContext(context.Background(), cell, lo, hi, sc)
			if err != nil {
				t.Fatal(err)
			}
			out[engine.ShardKey{Cell: c, Shard: s}] = sum
		}
	}
	return out
}

// marshal renders a summary through its bit-exact codec, for comparisons.
func marshal(t *testing.T, sum *engine.TrialSummary) []byte {
	t.Helper()
	blob, err := sum.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLedgerReportValidation: the ledger's one validation refuses units
// outside the grid and accumulators of the wrong size or stream
// configuration without touching its state, and acknowledges duplicates.
func TestLedgerReportValidation(t *testing.T) {
	cells := gridCells(t)[:2]
	const trials = 4
	sc := engine.StreamConfig{Quantiles: []float64{0.5, 0.99}, ExactK: 8}
	other := foldUnits(t, cells, trials, engine.StreamConfig{Quantiles: []float64{0.5}, ExactK: 8})
	wide, err := engine.FoldShardContext(context.Background(), cells[0], 0, 2, sc)
	if err != nil {
		t.Fatal(err)
	}
	k00 := engine.ShardKey{Cell: 0, Shard: 0}
	k13 := engine.ShardKey{Cell: 1, Shard: 3}

	for _, tc := range []struct {
		name      string
		seed      []engine.ShardKey // reported first, as a checkpoint seed is
		key       engine.ShardKey
		sum       *engine.TrialSummary // nil: the unit's true accumulator
		wantErr   bool
		wantFresh bool
	}{
		{name: "fresh report", key: k00, wantFresh: true},
		{name: "seeded unit", seed: []engine.ShardKey{k00}, key: k13, wantFresh: true},
		{name: "duplicate report", seed: []engine.ShardKey{k00}, key: k00},
		{name: "cell out of range", key: engine.ShardKey{Cell: 2}, sum: wide, wantErr: true},
		{name: "shard out of range", key: engine.ShardKey{Shard: trials}, sum: wide, wantErr: true},
		{name: "negative shard", key: engine.ShardKey{Shard: -1}, sum: wide, wantErr: true},
		{name: "missing summary", key: k00, sum: &engine.TrialSummary{Trials: 1}, wantErr: true},
		{name: "wrong trial count", key: k00, sum: wide, wantErr: true},
		{name: "incompatible stream config", key: k00, sum: other[k00], wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh accumulators per case: the ledger merges into them.
			units := foldUnits(t, cells, trials, sc)
			if tc.sum == nil {
				tc.sum = units[tc.key]
			}
			var delivered []int
			l, err := engine.NewLedger(len(cells), trials, sc, func(c int, _ *engine.TrialSummary) { delivered = append(delivered, c) })
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tc.seed {
				if _, _, err := l.Report(k, units[k]); err != nil {
					t.Fatal(err)
				}
			}
			fresh, merged, err := l.Report(tc.key, tc.sum)
			if tc.wantErr != errors.Is(err, engine.ErrBadUnit) || (err != nil && !tc.wantErr) {
				t.Fatalf("err = %v, want ErrBadUnit: %v", err, tc.wantErr)
			}
			if fresh != tc.wantFresh || merged {
				t.Fatalf("fresh=%v merged=%v, want fresh=%v and no merge", fresh, merged, tc.wantFresh)
			}
			// A refused or duplicate report leaves the ledger as it was: the
			// rest of the grid still drains to the reference summaries.
			if err := l.Drain(context.Background(), cells, engine.Config{Workers: 2}, nil); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(delivered, []int{0, 1}) {
				t.Fatalf("delivered cells %v, want [0 1]", delivered)
			}
		})
	}
}

// TestLedgerDeliversInEnumerationOrder: shards reported in reverse order —
// last cell first, last shard first — still merge in shard order and reach
// onCell in cell order, each summary equal to the cell run alone.
func TestLedgerDeliversInEnumerationOrder(t *testing.T) {
	cells := gridCells(t)
	const trials = 6
	sc := engine.StreamConfig{ExactK: 8}
	units := foldUnits(t, cells, trials, sc)
	want, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: 1}, sc, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	l, err := engine.NewLedger(len(cells), trials, sc, func(c int, sum *engine.TrialSummary) {
		if !reflect.DeepEqual(marshal(t, sum), marshal(t, want[c])) {
			t.Errorf("cell %d: summary differs from the grid run", c)
		}
		order = append(order, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := len(cells) - 1; c >= 0; c-- {
		for s := engine.Shards(trials) - 1; s >= 0; s-- {
			if _, _, err := l.Report(engine.ShardKey{Cell: c, Shard: s}, units[engine.ShardKey{Cell: c, Shard: s}]); err != nil {
				t.Fatal(err)
			}
			if c > 0 && len(order) != 0 {
				t.Fatalf("cell delivered while cell 0 is incomplete: %v", order)
			}
		}
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("delivery order %v, want enumeration order", order)
	}
}

// TestLedgerSeededCellsDeliverBeforeClaims: a fully seeded prefix of the
// grid is delivered by RunGrid before its pool claims anything, and a fully
// seeded cell behind an unfinished one waits for it.
func TestLedgerSeededCellsDeliverBeforeClaims(t *testing.T) {
	cells := gridCells(t)
	const trials = 3
	sc := engine.StreamConfig{ExactK: 8}
	units := foldUnits(t, cells, trials, sc)
	seed := map[engine.ShardKey]*engine.TrialSummary{}
	for k, sum := range units {
		if k.Cell != 2 { // cells 0, 1 and 3 are fully seeded
			seed[k] = sum
		}
	}
	var order []int
	var freshAt []int // len(order) when each fresh unit finished
	_, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: 1}, sc, engine.Hooks{
		Seed:    seed,
		OnShard: func(engine.ShardState) { freshAt = append(freshAt, len(order)) },
		OnCell:  func(c int, _ *engine.TrialSummary) { order = append(order, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("delivery order %v", order)
	}
	if len(freshAt) != engine.Shards(trials) {
		t.Fatalf("%d fresh units, want cell 2's %d", len(freshAt), engine.Shards(trials))
	}
	for _, n := range freshAt {
		if n != 2 {
			t.Fatalf("fresh unit finished after %d deliveries, want the seeded prefix (2) first", n)
		}
	}
}

// TestLedgerLeaseExpiry: a remote lease that runs out unreported is
// re-claimed before any fresh unit, even with done units in front of it,
// while a live lease and an in-process claim are never handed out twice.
func TestLedgerLeaseExpiry(t *testing.T) {
	cells := gridCells(t)[:1]
	const trials = 5
	sc := engine.StreamConfig{ExactK: 8}
	units := foldUnits(t, cells, trials, sc)
	l, err := engine.NewLedger(len(cells), trials, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s, lease := range []time.Duration{time.Hour, time.Hour, time.Millisecond} {
		u, ok := l.Claim(lease)
		if !ok || u.Shard != s || u.Reclaimed {
			t.Fatalf("claim %d = %+v, %v", s, u, ok)
		}
	}
	for _, s := range []int{0, 1} {
		if _, _, err := l.Report(engine.ShardKey{Shard: s}, units[engine.ShardKey{Shard: s}]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	u, ok := l.Claim(time.Hour)
	if !ok || u.Shard != 2 || !u.Reclaimed || u.TrialLo != 2 || u.TrialHi != 3 {
		t.Fatalf("post-expiry claim = %+v, %v; want shard 2 reclaimed", u, ok)
	}
	for _, want := range []int{3, 4} {
		if u, ok := l.Claim(0); !ok || u.Shard != want || u.Reclaimed {
			t.Fatalf("claim = %+v, %v; want fresh shard %d", u, ok, want)
		}
	}
	if u, ok := l.Claim(0); ok {
		t.Fatalf("claimed %+v while every undone unit is leased and live", u)
	}
}
