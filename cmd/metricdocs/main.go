// Command metricdocs prints docs/METRICS.md to stdout: the markdown catalog
// of every metric registered in the default registry — name, type, labels,
// and help text. The underscore imports below pull in every instrumented
// layer so their package-level registrations run; a new instrumented package
// must be added here to appear in the catalog. `make docs-metrics` pipes the
// output into the committed file and CI fails when the two drift
// (`make docs-check`), so the metric catalog can never silently fall behind
// the instrumentation.
package main

import (
	"os"

	"dualgraph/internal/metrics"

	_ "dualgraph/internal/engine"
	_ "dualgraph/internal/exhaustive"
	_ "dualgraph/internal/graph"
	_ "dualgraph/internal/progress"
	_ "dualgraph/internal/service"
	_ "dualgraph/internal/sim"
)

func main() {
	metrics.Default.WriteMarkdown(os.Stdout)
}
