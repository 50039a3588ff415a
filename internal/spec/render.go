package spec

import (
	"fmt"
	"math"

	"dualgraph/internal/engine"
)

// FormatSummary renders one streamed trial summary as the canonical
// single-line aggregate — the line `dgsim -spec` prints per cell and
// `dgsim -trials N` prints for its one cell. The sweep service streams
// exactly these lines, which is what makes its HTTP results byte-comparable
// to local CLI output: both sides render through this one function.
func FormatSummary(sum *engine.TrialSummary) string {
	stat := func(f func() (float64, error)) float64 {
		v, err := f()
		if err != nil {
			return math.NaN()
		}
		return v
	}
	return fmt.Sprintf("completed=%d/%d rounds: min=%.0f mean=%.2f p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.0f mean-transmissions=%.1f",
		sum.Completed, sum.Trials,
		stat(sum.Rounds.Min), stat(sum.Rounds.Mean),
		stat(func() (float64, error) { return sum.Rounds.Quantile(0.5) }),
		stat(func() (float64, error) { return sum.Rounds.Quantile(0.9) }),
		stat(func() (float64, error) { return sum.Rounds.Quantile(0.95) }),
		stat(func() (float64, error) { return sum.Rounds.Quantile(0.99) }),
		stat(sum.Rounds.Max), stat(sum.Transmissions.Mean))
}
