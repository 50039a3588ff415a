// Package metrics is the zero-dependency observability registry behind
// `GET /metrics`: atomic Counter/Gauge/Histogram instruments, labeled
// families, and a Prometheus-text-format encoder, with nothing imported
// beyond the standard library. The package exists so every layer — engine,
// sim, graph, service, CLIs — can share one registry without pulling a
// client library into a deterministic simulation core.
//
// Design constraints, in order:
//
//   - Observe-only: instruments never feed back into simulation state, so a
//     run with metrics enabled is byte-identical to one without.
//   - Allocation-free on the hot path: recording into any instrument is one
//     or two atomic operations and never allocates. Labeled families resolve
//     their child once (With) and hand back the scalar instrument; hot loops
//     cache that handle instead of re-resolving per event.
//   - Scrapes never block recorders: encoding walks the registry under
//     short-held mutexes that recorders do not take.
//
// Instrumented packages register their instruments in the package-level
// Default registry at init time; cmd/metricdocs renders the same registry
// into docs/METRICS.md, so the catalog can never drift from the code.
//
// SetEnabled(false) is a test/benchmark switch for hot-path call sites
// (engine shard timing, sim epoch counters): those sites consult Enabled()
// and skip recording when it is off, which is what BenchmarkMetricsOverhead
// compares against. Service-layer lifecycle gauges ignore the switch — they
// must stay balanced across state transitions.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates hot-path instrumentation sites (see package comment).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether hot-path instrumentation sites should record.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips the hot-path instrumentation gate. On by default; turned
// off only by overhead benchmarks and tests.
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing integer instrument.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float instrument (accumulated
// seconds, mostly). Add is a CAS loop on the float's bits.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds d; negative or NaN deltas are ignored.
func (c *FloatCounter) Add(d float64) {
	if !(d > 0) {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an integer instrument that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float instrument that can be set to arbitrary values
// (live rates and percentile estimates).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution instrument: cumulative bucket
// counts under le upper bounds, plus an exact count and sum. Buckets are
// fixed at registration; Observe is a bounds scan plus three atomic adds.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    FloatCounter
}

// Observe records one value. NaN is ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// kind is the exposition TYPE of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one registered metric name: its metadata plus either a scalar
// instrument or a labeled child map.
type family struct {
	name   string
	help   string
	typ    kind
	labels []string // empty for scalar instruments

	// Exactly one of the following is populated.
	counter   *Counter
	fcounter  *FloatCounter
	gauge     *Gauge
	fgauge    *FloatGauge
	histogram *Histogram

	mu       sync.Mutex // guards the child maps below
	keys     []string   // child keys in first-use order; sorted at scrape
	counters map[string]*labeled[*Counter]
}

// labeled pairs a child instrument with its label values.
type labeled[T any] struct {
	values []string
	inst   T
}

// CounterVec is a labeled counter family; With resolves one child.
type CounterVec struct{ f *family }

// childKey joins label values with an unprintable separator so distinct
// value tuples cannot collide.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// With returns the child counter for the given label values (created on
// first use). The handle is stable: hot paths should resolve once and reuse
// it, which keeps recording allocation-free.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	k := childKey(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.counters[k]; ok {
		return c.inst
	}
	c := &labeled[*Counter]{values: append([]string(nil), values...), inst: &Counter{}}
	v.f.counters[k] = c
	v.f.keys = append(v.f.keys, k)
	return c.inst
}

// Registry holds a set of uniquely named metric families. The zero value is
// not usable; construct with NewRegistry. Most code uses the package-level
// Default registry through the New* constructors.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry (tests; Default serves everyone
// else).
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry: instrumented packages register here
// at init, dgsimd and `dgsim -metrics` serve it, cmd/metricdocs renders it.
var Default = NewRegistry()

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// register validates and stores a family; registration happens at package
// init, so misuse (duplicate or malformed names) panics rather than
// returning an error nobody checks.
func (r *Registry) register(f *family) {
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.fams[f.name] = f
}

// NewCounter registers and returns a scalar counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: kindCounter, counter: c})
	return c
}

// NewFloatCounter registers and returns a scalar float counter.
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{}
	r.register(&family{name: name, help: help, typ: kindCounter, fcounter: c})
	return c
}

// NewGauge registers and returns a scalar gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: kindGauge, gauge: g})
	return g
}

// NewFloatGauge registers and returns a scalar float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{}
	r.register(&family{name: name, help: help, typ: kindGauge, fgauge: g})
	return g
}

// NewHistogram registers and returns a histogram with the given upper
// bounds, which must be strictly increasing and non-empty (+Inf is
// implicit, never passed).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: %s: histogram needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("metrics: %s: bucket bounds must be finite and strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1), // +1 for the +Inf bucket
	}
	r.register(&family{name: name, help: help, typ: kindHistogram, histogram: h})
	return h
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: %s: a labeled family needs at least one label", name))
	}
	f := &family{
		name: name, help: help, typ: kindCounter,
		labels:   append([]string(nil), labels...),
		counters: make(map[string]*labeled[*Counter]),
	}
	r.register(f)
	return &CounterVec{f: f}
}

// Package-level constructors on the Default registry.

// NewCounter registers a scalar counter in Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewFloatCounter registers a scalar float counter in Default.
func NewFloatCounter(name, help string) *FloatCounter { return Default.NewFloatCounter(name, help) }

// NewGauge registers a scalar gauge in Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewFloatGauge registers a scalar float gauge in Default.
func NewFloatGauge(name, help string) *FloatGauge { return Default.NewFloatGauge(name, help) }

// NewHistogram registers a histogram in Default.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// NewCounterVec registers a labeled counter family in Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// sortedFamilies snapshots the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// formatFloat renders a sample value the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelPairs renders {k="v",...} for parallel name/value slices; extra is an
// optional pre-rendered pair (histogram le) appended last.
func labelPairs(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}
