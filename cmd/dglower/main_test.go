package main

import (
	"strings"
	"testing"
)

func runLines(t *testing.T, args ...string) []string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
}

func TestTheorem2Golden(t *testing.T) {
	lines := runLines(t, "-game", "thm2", "-n", "8", "-alg", "round-robin")
	want := []string{
		"Theorem 2 game: n=8 alg=round-robin",
		"  forced rounds: 7 (bound: > n-3 = 5)",
		"  worst bridge process: 7",
		"  2-broadcastability witness: 2 rounds",
	}
	for i, w := range want {
		if i >= len(lines) || lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestTheorem12Runs(t *testing.T) {
	lines := runLines(t, "-game", "thm12", "-n", "9", "-alg", "round-robin")
	if want := "Theorem 12 game: n=9 alg=round-robin"; lines[0] != want {
		t.Fatalf("line 0 = %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "  forced rounds: ") {
		t.Fatalf("line 1 = %q", lines[1])
	}
}

func TestTheorem4Runs(t *testing.T) {
	lines := runLines(t, "-game", "thm4", "-n", "14", "-k", "5", "-trials", "20", "-seed", "2")
	if !strings.HasPrefix(lines[0], "Theorem 4 Monte-Carlo: n=14 k=5 trials=20") {
		t.Fatalf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "  Theorem 4 bound k/(n-2): 0.417") {
		t.Fatalf("line 2 = %q", lines[2])
	}
}

// TestAlgDefaultsPerGame checks that -alg defaults to round robin for the
// deterministic games and to harmonic for thm4, and that thm4 refuses a
// deterministic algorithm instead of running another one in its place.
func TestAlgDefaultsPerGame(t *testing.T) {
	if lines := runLines(t, "-game", "thm2", "-n", "8"); lines[0] != "Theorem 2 game: n=8 alg=round-robin" {
		t.Errorf("thm2 default: line 0 = %q", lines[0])
	}
	if lines := runLines(t, "-game", "thm12", "-n", "9"); lines[0] != "Theorem 12 game: n=9 alg=round-robin" {
		t.Errorf("thm12 default: line 0 = %q", lines[0])
	}
	lines := runLines(t, "-game", "thm4", "-n", "14", "-k", "5", "-trials", "20")
	if !strings.HasSuffix(lines[0], "alg=harmonic(T=60)") {
		t.Errorf("thm4 default: line 0 = %q", lines[0])
	}
	for _, alg := range []string{"round-robin", "strong-select"} {
		var sb strings.Builder
		err := run([]string{"-game", "thm4", "-n", "14", "-trials", "20", "-alg", alg}, &sb)
		if err == nil || !strings.Contains(err.Error(), "harmonic|uniform") || !strings.Contains(err.Error(), alg) {
			t.Errorf("thm4 -alg %s: err = %v, want a harmonic|uniform error naming %s", alg, err, alg)
		}
	}
}

func TestUnknownGameFails(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-game", "nope"}, &sb); err == nil {
		t.Fatal("expected error for unknown game")
	}
}
