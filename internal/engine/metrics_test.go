package engine

// White-box metric tests: the package's tests run sequentially (no
// t.Parallel anywhere in the repo), so exact before/after deltas on the
// package-global instruments are safe.

import (
	"context"
	"errors"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/sim"
)

// cheapCell is a one-round cell (round robin on a 2-node line): its trials
// cost microseconds, so the metric tests can run many units.
func cheapCell(t *testing.T) Trial {
	t.Helper()
	line, err := graph.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	return Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}}
}

// reduceCell streams n trials of cell over the grid of one on the given
// worker count, restoring the units in seed, and returns the summary.
func reduceCell(t *testing.T, cell Trial, n, workers int, seed map[ShardKey]*TrialSummary) *TrialSummary {
	t.Helper()
	sums, err := RunGrid(context.Background(), []Trial{cell}, n, Config{Workers: workers}, StreamConfig{}, Hooks{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sums[0]
}

func TestReduceMetricsDeltas(t *testing.T) {
	const n = 100 // below the cap: one shard per trial
	baseTrials := mTrialsTotal.Value()
	baseShards := mShardsCompleted.Value()
	baseSeeded := mShardsSeeded.Value()
	basePending := mUnitsPending.Value()
	baseBusy := mWorkerBusy.Value()
	baseDur := mShardDuration.Count()
	baseCells := mCellsCompleted.Value()

	if got := reduceCell(t, cheapCell(t), n, 4, nil); got.Trials != n {
		t.Fatalf("folded %d trials", got.Trials)
	}

	if d := mTrialsTotal.Value() - baseTrials; d != n {
		t.Errorf("trials delta = %d, want %d", d, n)
	}
	if d := mShardsCompleted.Value() - baseShards; d != int64(Shards(n)) {
		t.Errorf("shards delta = %d, want %d", d, Shards(n))
	}
	if d := mShardsSeeded.Value() - baseSeeded; d != 0 {
		t.Errorf("seeded delta = %d, want 0", d)
	}
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d", got, basePending)
	}
	if mWorkerBusy.Value() <= baseBusy {
		t.Errorf("busy seconds did not advance")
	}
	if d := mShardDuration.Count() - baseDur; d != int64(Shards(n)) {
		t.Errorf("shard duration observations delta = %d, want %d", d, Shards(n))
	}
	if d := mCellsCompleted.Value() - baseCells; d != 1 {
		t.Errorf("cells completed delta = %d, want 1", d)
	}
}

func TestReduceMetricsSeededSkips(t *testing.T) {
	const n = 50
	// Seed shards 0..9 with their true accumulators so the result is intact.
	cell := cheapCell(t)
	seed := make(map[ShardKey]*TrialSummary)
	for s := 0; s < 10; s++ {
		lo, hi := ShardRange(n, s)
		acc, err := FoldShardContext(context.Background(), cell, lo, hi, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		seed[ShardKey{Shard: s}] = acc
	}
	baseTrials := mTrialsTotal.Value()
	baseSeeded := mShardsSeeded.Value()
	basePending := mUnitsPending.Value()

	if got := reduceCell(t, cell, n, 2, seed); got.Trials != n {
		t.Fatalf("folded %d trials", got.Trials)
	}
	// Shards here are one trial wide (n < cap), so 10 seeded shards skip
	// exactly 10 trials.
	if d := mTrialsTotal.Value() - baseTrials; d != n-10 {
		t.Errorf("trials delta = %d, want %d", d, n-10)
	}
	if d := mShardsSeeded.Value() - baseSeeded; d != 10 {
		t.Errorf("seeded delta = %d, want 10", d)
	}
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d", got, basePending)
	}
}

func TestReduceMetricsPendingDrainsOnError(t *testing.T) {
	basePending := mUnitsPending.Value()
	bad := cheapCell(t)
	bad.Adv = selfDeliverer{}
	_, err := RunGrid(context.Background(), []Trial{cheapCell(t), bad}, 64, Config{Workers: 4}, StreamConfig{}, Hooks{})
	if !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("err = %v", err)
	}
	// Abandoned units must leave the queue with the failed run.
	if got := mUnitsPending.Value(); got != basePending {
		t.Errorf("pending gauge = %d, want baseline %d after error", got, basePending)
	}
}

func TestReduceMetricsGateOff(t *testing.T) {
	metrics.SetEnabled(false)
	defer metrics.SetEnabled(true)
	baseTrials := mTrialsTotal.Value()
	baseShards := mShardsCompleted.Value()
	basePending := mUnitsPending.Value()

	if got := reduceCell(t, cheapCell(t), 40, 4, nil); got.Trials != 40 {
		t.Fatalf("folded %d trials", got.Trials)
	}
	if mTrialsTotal.Value() != baseTrials || mShardsCompleted.Value() != baseShards {
		t.Errorf("counters advanced with the gate off")
	}
	if mUnitsPending.Value() != basePending {
		t.Errorf("pending gauge moved with the gate off")
	}
}

// selfDeliverer fails delivery validation on its first delivery round by
// delivering every sender's message to itself along a non-edge.
type selfDeliverer struct{ adversary.Benign }

func (selfDeliverer) Deliver(_ *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	m := map[graph.NodeID][]graph.NodeID{}
	for _, s := range senders {
		m[s] = []graph.NodeID{s}
	}
	return m
}
