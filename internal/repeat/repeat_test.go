package repeat

import (
	"errors"
	"math/rand"
	"testing"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
)

func mustLine(t *testing.T, n int) *graph.Dual {
	t.Helper()
	d, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustBridge(t *testing.T, n int) *graph.Dual {
	t.Helper()
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunValidation(t *testing.T) {
	d := mustLine(t, 4)
	p, err := NewSequential(16, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, p, Config{Messages: 0, MaxRounds: 10}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for 0 messages, got %v", err)
	}
	if _, err := Run(d, p, Config{Messages: 1, MaxRounds: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for 0 rounds, got %v", err)
	}
}

func TestSequentialValidation(t *testing.T) {
	if _, err := NewSequential(0, false, 0); err == nil {
		t.Fatal("expected error for budget 0")
	}
	if _, err := NewSequential(5, true, 0); err == nil {
		t.Fatal("expected error for harmonic T=0")
	}
}

func TestPipelinedValidation(t *testing.T) {
	if _, err := NewPipelined(true, 0); err == nil {
		t.Fatal("expected error for harmonic T=0")
	}
}

func TestSequentialRoundRobinCompletesOnLine(t *testing.T) {
	n, m := 6, 3
	d := mustLine(t, n)
	// On a line, round robin needs at most n rounds per hop: budget n².
	p, err := NewSequential(n*n, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, p, Config{Messages: m, MaxRounds: m * n * n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sequential did not complete: per-message %v", res.PerMessage)
	}
	// Message m completes within its own slot block.
	for i, r := range res.PerMessage {
		if r <= i*n*n || r > (i+1)*n*n {
			t.Errorf("message %d completed at round %d, outside its block (%d, %d]", i+1, r, i*n*n, (i+1)*n*n)
		}
	}
}

func TestPipelinedRoundRobinCompletesOnLine(t *testing.T) {
	n, m := 6, 4
	d := mustLine(t, n)
	p, err := NewPipelined(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, p, Config{Messages: m, MaxRounds: 20 * m * n * n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("pipelined did not complete: per-message %v", res.PerMessage)
	}
}

func TestPipelinedBeatsSequentialThroughput(t *testing.T) {
	n, m := 10, 8
	d := mustBridge(t, n)
	budget := 3 * n
	seq, err := NewSequential(budget, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipelined(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := 4 * m * budget
	resSeq, err := Run(d, seq, Config{Messages: m, MaxRounds: maxRounds, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resPipe, err := Run(d, pipe, Config{Messages: m, MaxRounds: maxRounds, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resSeq.Completed || !resPipe.Completed {
		t.Fatalf("both must complete: seq=%v pipe=%v", resSeq.Completed, resPipe.Completed)
	}
	if resPipe.Throughput <= resSeq.Throughput {
		t.Fatalf("pipelining must improve throughput: pipe=%.4f seq=%.4f",
			resPipe.Throughput, resSeq.Throughput)
	}
}

func TestHarmonicVariantsComplete(t *testing.T) {
	n, m := 12, 3
	d := mustBridge(t, n)
	T := core.HarmonicT(n, 0.1)
	seq, err := NewSequential(40*n, true, T)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipelined(true, T)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{seq, pipe} {
		res, err := Run(d, p, Config{Messages: m, MaxRounds: 400 * n * m, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%s did not complete (per-message %v)", p.Name(), res.PerMessage)
		}
	}
}

func TestEngineRejectsUnknownMessageTransmission(t *testing.T) {
	d := mustLine(t, 3)
	if _, err := Run(d, liar{}, Config{Messages: 2, MaxRounds: 10, Seed: 1}); err == nil {
		t.Fatal("engine must reject transmitting a message the node does not know")
	}
}

// liar has the source transmit message 2 and every other node transmit
// message 1 — which they can only have heard if the source sent it, so the
// first activated relay claims a message it does not know.
type liar struct{}

func (liar) Name() string { return "liar" }

func (liar) NewProcess(id, n, m int, _ *rand.Rand) Process { return liarProc{id: id} }

type liarProc struct{ id int }

func (p liarProc) Decide(int) (bool, Message) {
	if p.id == 1 {
		return true, 2
	}
	return true, 1
}

func (liarProc) Start(int, []Message) {}
func (liarProc) Learn(int, Message)   {}

func TestResultMetrics(t *testing.T) {
	n, m := 6, 2
	d := mustBridge(t, n)
	p, err := NewSequential(3*n, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, p, Config{Messages: m, MaxRounds: 12 * n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("expected completion")
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput must be positive for completed runs")
	}
	if res.Transmissions == 0 {
		t.Fatal("transmissions must be counted")
	}
	last := 0
	for _, r := range res.PerMessage {
		if r < last {
			t.Fatalf("sequential per-message completions must be non-decreasing: %v", res.PerMessage)
		}
		last = r
	}
}
