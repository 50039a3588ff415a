package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/stats"
)

// captureShards runs the grid once on one worker and returns every shard's
// serialized accumulator, keyed by unit. Marshalling happens inside the
// callback, before the engine can reuse the summary as a merge destination.
func captureShards(t *testing.T, cells []engine.Trial, trials int, sc engine.StreamConfig) (map[engine.ShardKey][]byte, []*engine.TrialSummary) {
	t.Helper()
	var mu sync.Mutex
	blobs := map[engine.ShardKey][]byte{}
	sums, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: 1}, sc, engine.Hooks{
		OnShard: func(st engine.ShardState) {
			blob, err := st.Summary.MarshalBinary()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			blobs[st.Key()] = blob
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return blobs, sums
}

// seedFromBlobs deserializes a subset of captured shards into a seed map.
func seedFromBlobs(t *testing.T, blobs map[engine.ShardKey][]byte, keep func(engine.ShardKey) bool) map[engine.ShardKey]*engine.TrialSummary {
	t.Helper()
	seed := map[engine.ShardKey]*engine.TrialSummary{}
	for k, blob := range blobs {
		if !keep(k) {
			continue
		}
		var sum engine.TrialSummary
		if err := sum.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		seed[k] = &sum
	}
	return seed
}

// TestGridStreamFromSeededMatchesFull is the resume contract at the engine
// layer: restoring any subset of shard accumulators from their serialized
// form and running only the remainder yields summaries bit-identical to the
// uninterrupted run — at any worker count.
func TestGridStreamFromSeededMatchesFull(t *testing.T) {
	cells := gridCells(t)
	const trials = 20
	sc := engine.StreamConfig{ExactK: 8}
	blobs, want := captureShards(t, cells, trials, sc)

	rng := rand.New(rand.NewSource(42))
	randomPick := map[engine.ShardKey]bool{}
	for k := range blobs {
		randomPick[k] = rng.Intn(2) == 0
	}
	subsets := map[string]func(engine.ShardKey) bool{
		"none":       func(engine.ShardKey) bool { return false },
		"all":        func(engine.ShardKey) bool { return true },
		"even":       func(k engine.ShardKey) bool { return (k.Cell+k.Shard)%2 == 0 },
		"first-cell": func(k engine.ShardKey) bool { return k.Cell == 0 },
		"random":     func(k engine.ShardKey) bool { return randomPick[k] },
	}
	for name, keep := range subsets {
		t.Run(name, func(t *testing.T) {
			seed := seedFromBlobs(t, blobs, keep)
			for _, workers := range []int{1, 2, 8} {
				var mu sync.Mutex
				fresh := map[engine.ShardKey]bool{}
				got, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: workers}, sc, engine.Hooks{
					Seed: seedFromBlobs(t, blobs, keep),
					OnShard: func(st engine.ShardState) {
						mu.Lock()
						fresh[st.Key()] = true
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for c := range cells {
					a, err := want[c].MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					b, err := got[c].MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("workers=%d cell %d: seeded run diverged from full run", workers, c)
					}
				}
				for k := range seed {
					if fresh[k] {
						t.Fatalf("workers=%d: seeded unit %+v re-ran", workers, k)
					}
				}
				for k := range blobs {
					if _, seeded := seed[k]; !seeded && !fresh[k] {
						t.Fatalf("workers=%d: unit %+v neither seeded nor run", workers, k)
					}
				}
			}
		})
	}
}

// TestRunStreamFromSeededMatchesFull covers the single-cell grid the same
// way: seed the even shards, expect bit-identical summaries.
func TestRunStreamFromSeededMatchesFull(t *testing.T) {
	cells := gridCells(t)[:1]
	const trials = 30
	sc := engine.StreamConfig{ExactK: 8}
	blobs, want := captureShards(t, cells, trials, sc)
	for _, workers := range []int{1, 2, 8} {
		seed := seedFromBlobs(t, blobs, func(k engine.ShardKey) bool { return k.Shard%2 == 0 })
		got, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: workers}, sc, engine.Hooks{Seed: seed})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a, _ := want[0].MarshalBinary()
		b, err := got[0].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: seeded stream diverged from full run", workers)
		}
	}
}

// TestFoldShardMatchesEngineShard: a worker that folds a claimed unit through
// FoldShardContext produces the exact accumulator the in-process engine
// built for the same unit — the coordinator/worker determinism premise.
func TestFoldShardMatchesEngineShard(t *testing.T) {
	cells := gridCells(t)
	const trials = 20
	sc := engine.StreamConfig{ExactK: 8}
	blobs, _ := captureShards(t, cells, trials, sc)
	if len(blobs) == 0 {
		t.Fatal("no shards captured")
	}
	for k, blob := range blobs {
		lo, hi := engine.ShardRange(trials, k.Shard)
		sum, err := engine.FoldShardContext(context.Background(), cells[k.Cell], lo, hi, sc)
		if err != nil {
			t.Fatalf("unit %+v: %v", k, err)
		}
		got, err := sum.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(blob, got) {
			t.Fatalf("unit %+v: FoldShardContext accumulator differs from engine shard", k)
		}
	}
}

// TestSeededUnitValidation: out-of-range seed keys are rejected up front.
func TestSeededUnitValidation(t *testing.T) {
	cells := gridCells(t)
	sc := engine.StreamConfig{}
	for name, bad := range map[string]engine.ShardKey{
		"cell past the grid":  {Cell: len(cells), Shard: 0},
		"shard past the cell": {Cell: 0, Shard: engine.Shards(10)},
		"negative shard":      {Cell: 0, Shard: -1},
	} {
		seed := map[engine.ShardKey]*engine.TrialSummary{bad: nil}
		if _, err := engine.RunGrid(context.Background(), cells, 10, engine.Config{}, sc, engine.Hooks{Seed: seed}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestTrialSummaryCodec pins the engine-level wrapper: round trip, typed
// truncation rejection, and receiver preservation on error.
func TestTrialSummaryCodec(t *testing.T) {
	_, sums := captureShards(t, gridCells(t), 20, engine.StreamConfig{ExactK: 8})
	sum := sums[0]
	blob, err := sum.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out engine.TrialSummary
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, &out) {
		t.Fatal("round trip lost state")
	}
	for cut := 0; cut < len(blob); cut++ {
		var tr engine.TrialSummary
		err := tr.UnmarshalBinary(blob[:cut])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", cut, len(blob))
		}
		var version *stats.ErrEncodingVersion
		if !errors.Is(err, engine.ErrCorruptSummary) && !errors.Is(err, stats.ErrCorruptEncoding) && !errors.As(err, &version) {
			t.Fatalf("cut=%d: rejection is not typed: %v", cut, err)
		}
	}
	// Tally invariants: trial count must match the stream counts.
	var tampered engine.TrialSummary
	if err := tampered.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	tampered.Trials++
	bad, err := tampered.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rej engine.TrialSummary
	if err := rej.UnmarshalBinary(bad); !errors.Is(err, engine.ErrCorruptSummary) {
		t.Fatalf("tally mismatch accepted: %v", err)
	}
	before := blob
	if err := out.UnmarshalBinary(blob[:8]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
	after, err := out.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed unmarshal mutated the receiver")
	}
}
