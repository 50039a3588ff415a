package spec

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"dualgraph/internal/engine"
)

func TestSweepHashIsStableAndDiscriminating(t *testing.T) {
	sw := testSweep()
	h1, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sw.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash is not deterministic")
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}

	// A JSON round trip preserves the identity (resume reads the document
	// back from disk).
	blob, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var back Sweep
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	h3, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Fatal("hash changed across a JSON round trip")
	}

	// Stating version 1 explicitly means the same document.
	versioned := sw
	versioned.Version = WireVersion
	if h, _ := versioned.Hash(); h != h1 {
		t.Fatal("explicit version 1 hashes differently from implied")
	}

	// Any semantic edit changes the identity.
	edited := testSweep()
	edited.Trials++
	if h, _ := edited.Hash(); h == h1 {
		t.Fatal("edited sweep kept the same hash")
	}
	edited = testSweep()
	edited.Base.Seed++
	if h, _ := edited.Hash(); h == h1 {
		t.Fatal("reseeded sweep kept the same hash")
	}

	bad := testSweep()
	bad.Version = 99
	if _, err := bad.Hash(); err == nil {
		t.Fatal("unsupported version hashed successfully")
	}
}

// TestStreamFromSeededMatchesFull is the spec-layer resume contract: seeding
// a subset of captured units reproduces the full grid bit-identically —
// summaries and the onCell delivery sequence alike — at several worker
// counts.
func TestStreamFromSeededMatchesFull(t *testing.T) {
	sw := testSweep()
	sc := engine.StreamConfig{ExactK: 8}

	var mu sync.Mutex
	blobs := map[engine.ShardKey][]byte{}
	var wantCells []string
	want, err := sw.Run(context.Background(), engine.Config{Workers: 1}, sc, Hooks{
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
		OnCell: func(cr CellResult) {
			wantCells = append(wantCells, cr.Cell.Label)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCells) != len(want.Cells) {
		t.Fatalf("delivered %d cells, grid has %d", len(wantCells), len(want.Cells))
	}

	for _, workers := range []int{1, 2, 8} {
		seed := map[engine.ShardKey]*engine.TrialSummary{}
		for k, blob := range blobs {
			if (k.Cell+k.Shard)%3 == 0 {
				var sum engine.TrialSummary
				if err := sum.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				seed[k] = &sum
			}
		}
		var gotCells []string
		got, err := sw.Run(context.Background(), engine.Config{Workers: workers}, sc, Hooks{
			Seed: seed,
			OnCell: func(cr CellResult) {
				mu.Lock()
				gotCells = append(gotCells, cr.Cell.Label)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotCells, wantCells) {
			t.Fatalf("workers=%d: delivery order %v, want %v", workers, gotCells, wantCells)
		}
		for i := range want.Cells {
			a, err := want.Cells[i].Summary.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Cells[i].Summary.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d cell %d (%s): seeded run diverged", workers, i, want.Cells[i].Cell.Label)
			}
		}
	}
}
