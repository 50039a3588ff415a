package checkpoint

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// testRecords produces genuine shard accumulators from a tiny run, so the
// records carry realistic stream state.
func testRecords(t testing.TB, trials int) ([]Record, Meta) {
	t.Helper()
	line, err := graph.Line(7)
	if err != nil {
		t.Fatal(err)
	}
	cell := engine.Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 3}}
	sc := engine.StreamConfig{ExactK: 8}
	var recs []Record
	_, err = engine.RunGrid(context.Background(), []engine.Trial{cell, cell}, trials, engine.Config{Workers: 1}, sc, engine.Hooks{
		OnShard: func(st engine.ShardState) {
			var sum engine.TrialSummary
			blob, err := st.Summary.MarshalBinary()
			if err != nil {
				t.Error(err)
				return
			}
			if err := sum.UnmarshalBinary(blob); err != nil {
				t.Error(err)
				return
			}
			recs = append(recs, Record{Cell: st.Cell, Shard: st.Shard,
				TrialLo: st.TrialLo, TrialHi: st.TrialHi, Summary: &sum})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, Meta{SpecHash: "deadbeef", Cells: 2, Trials: trials, ExactK: 8}
}

// writeFile creates a checkpoint holding recs[:n].
func writeFile(t *testing.T, path string, meta Meta, recs []Record) {
	t.Helper()
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs)
	got, _, err := Recover(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered records differ:\n got %+v\nwant %+v", got, recs)
	}
	seed := SeedMap(got)
	if len(seed) != len(recs) {
		t.Fatalf("seed map has %d entries, want %d", len(seed), len(recs))
	}
}

func TestEmptyCheckpointRecovers(t *testing.T) {
	_, meta := testRecords(t, 4)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, nil)
	got, _, err := Recover(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty checkpoint recovered %d records", len(got))
	}
}

// TestTornTailIsDropped: every truncation point after the header recovers
// the records whose frames are fully present — never an error, never a
// partial record.
func TestTornTailIsDropped(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the header end by recovering the empty file.
	writeFile(t, path, meta, nil)
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := len(hdr)
	frame := (len(blob) - headerLen) / len(recs)
	for cut := headerLen; cut <= len(blob); cut++ {
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := Recover(path, meta)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantN := (cut - headerLen) / frame
		if len(got) != wantN {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), wantN)
		}
		if wantFrontier := int64(headerLen + wantN*frame); validLen != wantFrontier {
			t.Fatalf("cut=%d: validLen %d, want %d", cut, validLen, wantFrontier)
		}
	}
}

// TestResumeTruncatesAndAppends: a torn tail disappears on Resume and fresh
// appends land after the intact prefix.
func TestResumeTruncatesAndAppends(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs[:2])
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the second record's tail off.
	if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, w, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("resumed with %d records, want 1", len(got))
	}
	for _, r := range recs[1:] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	final, _, err := Recover(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, recs) {
		t.Fatal("resume + append did not reproduce the full record set")
	}
}

func TestRejectsStaleSpec(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs)
	stale := meta
	stale.SpecHash = "cafebabe"
	var mismatch *ErrSpecMismatch
	if _, _, err := Recover(path, stale); !errors.As(err, &mismatch) {
		t.Fatalf("want *ErrSpecMismatch, got %v", err)
	} else if mismatch.Got.SpecHash != meta.SpecHash || mismatch.Want.SpecHash != stale.SpecHash {
		t.Fatalf("mismatch error carries %+v / %+v", mismatch.Got, mismatch.Want)
	}
	// Changed stream parameters are a mismatch too.
	tuned := meta
	tuned.ExactK = 99
	if _, _, err := Recover(path, tuned); !errors.As(err, &mismatch) {
		t.Fatalf("want *ErrSpecMismatch for exactK change, got %v", err)
	}
}

// TestRejectsPreStreamGeneratorFile pins the generator guard: a version-1
// file — identical framing, same spec hash and sizes, but accumulators from
// the math/rand generator — must not resume into a SplitMix64-stream run.
func TestRejectsPreStreamGeneratorFile(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:], 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var version *ErrVersion
	if _, _, err := Resume(path, meta); !errors.As(err, &version) {
		t.Fatalf("version-1 checkpoint resumed: want *ErrVersion, got %v", err)
	} else if version.Got != 1 {
		t.Fatalf("version error carries %d, want 1", version.Got)
	}
}

func TestRejectsCorruption(t *testing.T) {
	recs, meta := testRecords(t, 12)
	path := filepath.Join(t.TempDir(), "ck")
	writeFile(t, path, meta, recs)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reset := func(mutate func(b []byte)) {
		b := append([]byte(nil), pristine...)
		mutate(b)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reset(func(b []byte) { b[0] ^= 0xff })
	if _, _, err := Recover(path, meta); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}

	reset(func(b []byte) { b[4] = 0x7f })
	var version *ErrVersion
	if _, _, err := Recover(path, meta); !errors.As(err, &version) {
		t.Fatalf("future version: want *ErrVersion, got %v", err)
	} else if version.Got != 0x7f {
		t.Fatalf("version error carries %d", version.Got)
	}

	// Flip a byte in the middle of the first record's payload: a complete
	// frame with a failed CRC is bit rot, not a torn write.
	reset(func(b []byte) { b[len(b)/2] ^= 0x01 })
	if _, _, err := Recover(path, meta); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file flip: want ErrCorrupt, got %v", err)
	}

	// A duplicated record frame is structural damage.
	first := append([]byte(nil), pristine...)
	hdrEnd := func() int {
		p := filepath.Join(t.TempDir(), "hdr")
		writeFile(t, p, meta, nil)
		h, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return len(h)
	}()
	frame := (len(pristine) - hdrEnd) / len(recs)
	dup := append(first, first[hdrEnd:hdrEnd+frame]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(path, meta); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate record: want ErrCorrupt, got %v", err)
	}
}

// FuzzDecode: arbitrary bytes never panic; failures are always typed.
func FuzzDecode(f *testing.F) {
	recs, meta := testRecords(f, 12)
	dir, err := os.MkdirTemp("", "ckfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ck")
	w, err := Create(path, meta)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := decode(data, meta)
		if err == nil {
			return
		}
		var version *ErrVersion
		var mismatch *ErrSpecMismatch
		if !errors.Is(err, ErrCorrupt) && !errors.As(err, &version) && !errors.As(err, &mismatch) {
			t.Fatalf("rejection is not typed: %v", err)
		}
	})
}
