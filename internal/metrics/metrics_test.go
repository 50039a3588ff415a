package metrics

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_counter", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	g := r.NewGauge("test_gauge", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %d, want 4", got)
	}
	fc := r.NewFloatCounter("test_seconds_total", "seconds")
	fc.Add(0.5)
	fc.Add(0.25)
	fc.Add(math.NaN()) // ignored
	fc.Add(-1)         // ignored
	if got := fc.Value(); got != 0.75 {
		t.Fatalf("float counter value = %v, want 0.75", got)
	}
	fg := r.NewFloatGauge("test_ratio", "ratio")
	fg.Set(0.125)
	if got := fg.Value(); got != 0.125 {
		t.Fatalf("float gauge value = %v, want 0.125", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_duration_seconds", "durations", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5 (NaN ignored)", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative buckets: le=0.1 sees 2 (0.05 and the boundary 0.1),
	// le=1 sees 3, le=10 sees 4, +Inf sees all 5.
	for _, want := range []string{
		`test_duration_seconds_bucket{le="0.1"} 2`,
		`test_duration_seconds_bucket{le="1"} 3`,
		`test_duration_seconds_bucket{le="10"} 4`,
		`test_duration_seconds_bucket{le="+Inf"} 5`,
		`test_duration_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_cells_total", "per-cell", "cell")
	cv.With("1").Add(10)
	cv.With("0").Add(3)
	if cv.With("1") != cv.With("1") {
		t.Fatal("With must return a stable child handle")
	}
	jv := r.NewCounterVec("test_jobs_total", "job states", "state")
	jv.With("running").Inc()
	jv.With("queued").Add(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Children sort by label value, families by name.
	i0 := strings.Index(out, `test_cells_total{cell="0"} 3`)
	i1 := strings.Index(out, `test_cells_total{cell="1"} 10`)
	if i0 < 0 || i1 < 0 || i0 > i1 {
		t.Fatalf("labeled samples missing or misordered:\n%s", out)
	}
	iq := strings.Index(out, `test_jobs_total{state="queued"} 2`)
	ir := strings.Index(out, `test_jobs_total{state="running"} 1`)
	if iq < i1 || ir < iq {
		t.Fatalf("second family's samples missing or misordered:\n%s", out)
	}
}

func TestExpositionHeadersAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "line1\nline2 \\ backslash")
	cv := r.NewCounterVec("esc_labeled_total", "labeled", "who")
	cv.With("say \"hi\"\n").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2 \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_labeled_total{who="say \"hi\"\n"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE esc_total counter\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	mustPanic("duplicate", func() { r.NewGauge("dup_total", "y") })
	mustPanic("bad name", func() { r.NewCounter("bad name", "x") })
	mustPanic("bad label", func() { r.NewCounterVec("ok_total", "x", "bad-label") })
	mustPanic("no labels", func() { r.NewCounterVec("ok2_total", "x") })
	mustPanic("empty buckets", func() { r.NewHistogram("h_total", "x", nil) })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h2_total", "x", []float64{1, 1}) })
	mustPanic("wrong label arity", func() {
		v := r.NewCounterVec("arity_total", "x", "a", "b")
		v.With("only-one")
	})
}

// TestConcurrentRecordAndScrape hammers every instrument kind from many
// goroutines while scraping concurrently: the race lane runs this package,
// so any unsynchronized path fails loudly.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "x")
	fc := r.NewFloatCounter("conc_seconds_total", "x")
	g := r.NewGauge("conc_gauge", "x")
	h := r.NewHistogram("conc_hist", "x", []float64{1, 10})
	cv := r.NewCounterVec("conc_cells_total", "x", "cell")

	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.With(fmt.Sprint(w % 3))
			for i := 0; i < perG; i++ {
				c.Inc()
				fc.Add(0.001)
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 20))
				child.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != goroutines*perG {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	total := int64(0)
	for i := 0; i < 3; i++ {
		total += cv.With(fmt.Sprint(i)).Value()
	}
	if total != goroutines*perG {
		t.Fatalf("vec total = %d, want %d", total, goroutines*perG)
	}
	if got, want := fc.Value(), float64(goroutines*perG)*0.001; math.Abs(got-want) > 1e-6 {
		t.Fatalf("float counter = %v, want %v", got, want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("handler_total", "x").Add(2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "handler_total 2\n") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zeta_total", "last by name")
	r.NewCounterVec("alpha_jobs", "first by name", "state")
	var sb strings.Builder
	r.WriteMarkdown(&sb)
	out := sb.String()
	ia := strings.Index(out, "`alpha_jobs`")
	iz := strings.Index(out, "`zeta_total`")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("catalog rows missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "`state`") {
		t.Fatalf("catalog missing label column content:\n%s", out)
	}
}

func TestEnabledGate(t *testing.T) {
	if !Enabled() {
		t.Fatal("metrics must default to enabled")
	}
	SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) did not take")
	}
	SetEnabled(true)
}
