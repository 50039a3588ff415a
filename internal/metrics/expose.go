// Exposition: the Prometheus text encoder behind GET /metrics, plus the
// markdown catalog renderer behind cmd/metricdocs. Both walk the same
// registry, so the served series and the committed docs/METRICS.md catalog
// cannot disagree about what exists.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus encodes every family in Prometheus text format, families
// sorted by name, children sorted by label values. Scalar instruments always
// emit a sample (counters start visible at 0); labeled families emit one
// sample per child created so far.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.fcounter != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.fcounter.Value()))
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.gauge.Value())
		case f.fgauge != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.fgauge.Value()))
		case f.histogram != nil:
			writeHistogram(bw, f.name, f.histogram)
		default:
			writeChildren(bw, f)
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative bucket series plus _sum and _count.
func writeHistogram(w io.Writer, name string, h *Histogram) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// writeChildren emits a labeled family's samples in sorted child order.
func writeChildren(w io.Writer, f *family) {
	f.mu.Lock()
	keys := append([]string(nil), f.keys...)
	f.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		f.mu.Lock()
		c := f.counters[k]
		f.mu.Unlock()
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labels, c.values, ""), c.inst.Value())
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry in Prometheus text format: the
// handler dgsimd mounts at GET /metrics and `dgsim -metrics` serves on its
// debug listener.
func Handler() http.Handler { return Default.Handler() }

// WriteMarkdown renders the registry as the docs/METRICS.md catalog: one
// table row per family, sorted by name. Regenerated by cmd/metricdocs and
// drift-gated by `make docs-check`, exactly like docs/REGISTRY.md.
func (r *Registry) WriteMarkdown(w io.Writer) {
	fmt.Fprintln(w, "# Metric catalog")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `cmd/metricdocs` from the process-wide metrics registry")
	fmt.Fprintln(w, "(`internal/metrics.Default`); regenerate with `make docs-metrics`.")
	fmt.Fprintln(w, "Every series below is served on dgsimd's `GET /metrics` and on the")
	fmt.Fprintln(w, "`dgsim -metrics addr` debug listener, in Prometheus text format.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Metric | Type | Labels | Help |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, f := range r.sortedFamilies() {
		labels := "—"
		if len(f.labels) > 0 {
			labels = "`" + strings.Join(f.labels, "`, `") + "`"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", f.name, f.typ, labels, f.help)
	}
}
