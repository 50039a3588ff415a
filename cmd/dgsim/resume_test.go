package main

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dualgraph"
)

// resumeSpec is a grid big enough that a mid-run SIGKILL lands between the
// first and the last checkpoint record: 4 cells × 60 trials of the harmonic
// algorithm under the greedy collider.
const resumeSpec = `{
  "base": {"topology": {"name": "clique-bridge"}, "algorithm": {"name": "harmonic"},
           "adversary": {"name": "greedy"}, "n": 9, "rule": "CR4", "start": "async", "seed": 7},
  "topologies": [{"name": "clique-bridge"}, {"name": "line"}],
  "algorithms": [{"name": "harmonic"}, {"name": "round-robin"}],
  "trials": 60
}`

// writeResumeSpec drops the spec into dir and returns its path.
func writeResumeSpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, []byte(resumeSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recordCount recovers the checkpoint leniently and reports how many intact
// records it holds right now (0 when the file is missing or headerless).
func recordCount(specPath, ckPath string) int {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return 0
	}
	var sw dualgraph.Sweep
	if err := sw.UnmarshalJSON(blob); err != nil {
		return 0
	}
	cells, err := sw.Cells()
	if err != nil {
		return 0
	}
	hash, err := sw.Hash()
	if err != nil {
		return 0
	}
	trials := sw.Trials
	if trials == 0 {
		trials = 1
	}
	meta := dualgraph.CheckpointMetaFor(hash, len(cells), trials, dualgraph.StreamConfig{})
	recs, _, err := dualgraph.RecoverCheckpoint(ckPath, meta)
	if err != nil {
		return 0
	}
	return len(recs)
}

// TestKillAndResumeByteIdentical is the end-to-end crash-recovery golden
// test: a real dgsim process is SIGKILLed mid-grid while checkpointing, and
// the resumed run's full output is byte-identical to an uninterrupted run —
// at workers 1, 2, and 8.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	dir := t.TempDir()
	specPath := writeResumeSpec(t, dir)

	// Uninterrupted reference output.
	var want strings.Builder
	if err := run(context.Background(), []string{"-spec", specPath, "-workers", "4"}, &want); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "dgsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Kill a slow (1-worker) checkpointing run once it has persisted some —
	// but not all — shards. 4 cells × Shards(60)=60 shards = 240 records.
	ckPath := filepath.Join(dir, "grid.ckpt")
	cmd := exec.Command(bin, "-spec", specPath, "-checkpoint", ckPath, "-workers", "1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for recordCount(specPath, ckPath) < 3 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("checkpoint never accumulated records")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the checkpoint is what matters
	killed := recordCount(specPath, ckPath)
	if killed == 0 {
		t.Fatal("killed run left no recoverable records")
	}
	if killed >= 240 {
		t.Skip("run finished before the kill landed; nothing left to resume")
	}
	ckBlob, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []string{"1", "2", "8"} {
		// Each resume gets its own copy: resuming appends to the file, and
		// every worker count must recover from the same crash state.
		cp := filepath.Join(dir, "resume-"+workers+".ckpt")
		if err := os.WriteFile(cp, ckBlob, 0o644); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if err := run(context.Background(), []string{"-spec", specPath, "-resume", cp, "-workers", workers}, &got); err != nil {
			t.Fatalf("resume workers=%s: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Fatalf("workers=%s: resumed output differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s",
				workers, got.String(), want.String())
		}
		// The resumed checkpoint must now be complete: a second resume runs
		// nothing and still reproduces the output.
		var again strings.Builder
		if err := run(context.Background(), []string{"-spec", specPath, "-resume", cp, "-workers", workers}, &again); err != nil {
			t.Fatalf("re-resume workers=%s: %v", workers, err)
		}
		if again.String() != want.String() {
			t.Fatalf("workers=%s: fully-seeded resume output differs", workers)
		}
	}
}

// TestResumeRejectsEditedSpec: the spec-hash gate refuses to splice a
// checkpoint into a different experiment.
func TestResumeRejectsEditedSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := writeResumeSpec(t, dir)
	small := strings.Replace(resumeSpec, `"trials": 60`, `"trials": 6`, 1)
	if err := os.WriteFile(specPath, []byte(small), 0o644); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, "grid.ckpt")
	var out strings.Builder
	if err := run(context.Background(), []string{"-spec", specPath, "-checkpoint", ckPath, "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(small, `"seed": 7`, `"seed": 8`, 1)
	if err := os.WriteFile(specPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-spec", specPath, "-resume", ckPath}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "spec changed") {
		t.Fatalf("edited spec resumed: %v", err)
	}
}

// TestResumeRejectsPreStreamCheckpoint: a checkpoint of the same spec
// written by a build on the math/rand generator (file version 1) must fail
// the resume with the typed version error rather than splice its shards
// into a SplitMix64-stream run.
func TestResumeRejectsPreStreamCheckpoint(t *testing.T) {
	dir := t.TempDir()
	specPath := writeResumeSpec(t, dir)
	small := strings.Replace(resumeSpec, `"trials": 60`, `"trials": 6`, 1)
	if err := os.WriteFile(specPath, []byte(small), 0o644); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, "grid.ckpt")
	if err := run(context.Background(), []string{"-spec", specPath, "-checkpoint", ckPath}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:], 1)
	if err := os.WriteFile(ckPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-spec", specPath, "-resume", ckPath}, &strings.Builder{})
	var version *dualgraph.ErrCheckpointVersion
	if !errors.As(err, &version) || version.Got != 1 {
		t.Fatalf("version-1 checkpoint resumed: want *ErrCheckpointVersion{Got: 1}, got %v", err)
	}
}

// TestCellCheckpointResumeByteIdentical: a -trials N cell run is a one-cell
// sweep, so it checkpoints and resumes like -spec. A resume from a torn
// checkpoint reprints the uninterrupted output byte-identically at any
// -workers value, and a resume under a changed cell flag is refused.
func TestCellCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "cell.ckpt")
	cell := []string{"-topo", "clique-bridge", "-n", "9", "-alg", "harmonic", "-adv", "greedy", "-seed", "2", "-trials", "64"}
	var want strings.Builder
	if err := run(context.Background(), append(cell, "-checkpoint", ckPath, "-workers", "2"), &want); err != nil {
		t.Fatal(err)
	}
	ckBlob, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2", "8"} {
		for _, blob := range [][]byte{ckBlob, ckBlob[:len(ckBlob)*2/3]} {
			cp := filepath.Join(dir, "resume.ckpt")
			if err := os.WriteFile(cp, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			if err := run(context.Background(), append(cell, "-resume", cp, "-workers", workers), &got); err != nil {
				t.Fatalf("resume workers=%s: %v", workers, err)
			}
			if got.String() != want.String() {
				t.Fatalf("workers=%s, %d of %d checkpoint bytes: resumed output\n%s differs from\n%s",
					workers, len(blob), len(ckBlob), got.String(), want.String())
			}
		}
	}
	changed := append(append([]string{}, cell...), "-seed", "3", "-resume", ckPath)
	err = run(context.Background(), changed, &strings.Builder{})
	var mismatch *dualgraph.ErrCheckpointSpecMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("resume under a changed -seed: want *ErrCheckpointSpecMismatch, got %v", err)
	}
}

// TestCheckpointFlagValidation pins the flag contract: checkpoints and live
// telemetry act on sweeps, so a single run (-trials 1) rejects them.
func TestCheckpointFlagValidation(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-checkpoint", "x"},
		{"-resume", "x"},
		{"-progress"},
		{"-progress", "-trials", "1"},
		{"-metrics", "localhost:0", "-trials", "1"},
	} {
		err := run(context.Background(), args, &sb)
		if err == nil || !strings.Contains(err.Error(), "-trials > 1 or -spec") {
			t.Fatalf("run(%v) on a single run: %v", args, err)
		}
	}
	if err := run(context.Background(), []string{"-spec", "s", "-checkpoint", "x", "-resume", "y"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-checkpoint with -resume: %v", err)
	}
}
