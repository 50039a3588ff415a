// Streaming aggregates: the shard partition of a trial range and the
// mergeable TrialSummary that RunGrid and FoldShardContext fold trials
// into. Where Map materializes one result per trial (O(trials) memory), a
// streaming run folds every result into its shard's accumulator as soon as
// it is produced and merges the shard accumulators in shard-index order, so
// a million-trial sweep retains O(Shards(n)) accumulators and nothing else.
//
// Determinism extends Map's guarantee to aggregates: the trial→shard
// partition is a pure function of the trial count (never of the worker
// count), each shard folds its trials in index order, and the final merge
// walks shards in index order — so the reduced value is bit-identical at
// any worker count, including the floating-point rounding of mean/variance
// merges and the P² marker states.
package engine

import (
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// maxShards caps the number of accumulator shards. 256 keeps the merge and
// the retained memory trivial while still load-balancing up to 256 workers.
const maxShards = 256

// Shards returns the number of accumulator shards of an n-trial stream:
// min(n, 256). It is a pure function of n, which is what makes reduced
// aggregates independent of the worker count.
func Shards(n int) int {
	if n < maxShards {
		return n
	}
	return maxShards
}

// ShardRange returns the half-open trial range [lo, hi) of shard s in an
// n-trial stream — the balanced contiguous partition of 0..n-1 into
// Shards(n) blocks that every streaming path uses, exposed so checkpoint
// files and coordinator/worker claims can name a shard's work without
// re-deriving it. Like Shards, it is a pure function of n.
func ShardRange(n, s int) (lo, hi int) {
	size, rem := n/Shards(n), n%Shards(n)
	lo = s*size + min(s, rem)
	hi = lo + size
	if s < rem {
		hi++
	}
	return lo, hi
}

// StreamConfig parameterizes the summary statistics a streaming run tracks.
type StreamConfig struct {
	// Quantiles are the tracked targets; nil means 0.5, 0.9, 0.95, 0.99.
	Quantiles []float64
	// ExactK is the per-accumulator exact-until-K spill threshold passed to
	// stats.NewStream; <= 0 uses stats.DefaultExactK.
	ExactK int
}

func (sc StreamConfig) quantiles() []float64 {
	if len(sc.Quantiles) > 0 {
		return sc.Quantiles
	}
	return []float64{0.5, 0.9, 0.95, 0.99}
}

// TrialSummary is the streaming aggregate of a Monte Carlo sweep: exact
// trial/completion counts plus mergeable summaries of rounds and
// transmissions (see stats.Stream for the accuracy contract).
type TrialSummary struct {
	// Trials counts the executions folded in.
	Trials int64
	// Completed counts executions in which every process received the
	// message.
	Completed int64
	// Rounds summarizes Result.Rounds across trials.
	Rounds *stats.Stream
	// Transmissions summarizes Result.Transmissions across trials.
	Transmissions *stats.Stream
}

// NewSummary returns an empty accumulator built with this configuration —
// the constructor of every shard accumulator, exported so out-of-engine
// consumers (the progress tracker) can Merge onShard summaries into a
// configuration-compatible destination.
func (sc StreamConfig) NewSummary() *TrialSummary {
	rounds, _ := stats.NewStream(sc.quantiles(), sc.ExactK)
	tx, _ := stats.NewStream(sc.quantiles(), sc.ExactK)
	return &TrialSummary{Rounds: rounds, Transmissions: tx}
}

// fold adds one execution to the summary.
func (t *TrialSummary) fold(res *sim.Result) error {
	t.Trials++
	if res.Completed {
		t.Completed++
	}
	if err := t.Rounds.Add(float64(res.Rounds)); err != nil {
		return err
	}
	return t.Transmissions.Add(float64(res.Transmissions))
}

// Merge folds another summary into t (src unchanged).
func (t *TrialSummary) Merge(src *TrialSummary) error {
	t.Trials += src.Trials
	t.Completed += src.Completed
	if err := t.Rounds.Merge(src.Rounds); err != nil {
		return err
	}
	return t.Transmissions.Merge(src.Transmissions)
}
