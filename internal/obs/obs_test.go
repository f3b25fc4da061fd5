package obs

import (
	"bytes"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_reqs_total", "requests", "tier", "freq")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters never decrease
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("t_reqs_total", "requests", "tier", "freq"); again != c {
		t.Fatal("re-registration did not return the same handle")
	}
	other := r.Counter("t_reqs_total", "requests", "tier", "mean")
	if other == c {
		t.Fatal("distinct label sets share a handle")
	}

	g := r.Gauge("t_depth", "queue depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-5.555) > 1e-9 {
		t.Fatalf("sum = %v, want 5.555", h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`t_lat_seconds_bucket{le="0.01"} 1`,
		`t_lat_seconds_bucket{le="0.1"} 2`,
		`t_lat_seconds_bucket{le="1"} 3`,
		`t_lat_seconds_bucket{le="+Inf"} 4`,
		`t_lat_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderParseLintRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_a_total", "a counter", "wire", "json").Add(7)
	r.Counter("t_a_total", "a counter", "wire", "binary").Add(9)
	r.Gauge("t_b", "a gauge").Set(3)
	r.GaugeFunc("t_c", "a computed gauge", func() float64 { return 42 })
	r.Histogram("t_h_seconds", "a histogram", []float64{1, 2}).Observe(1.5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("parse back own render: %v\n%s", err, b.String())
	}
	if problems := Lint(e); len(problems) != 0 {
		t.Fatalf("lint of own render: %v\n%s", problems, b.String())
	}
	samples := e.Samples()
	for key, want := range map[string]float64{
		`t_a_total{wire="json"}`:   7,
		`t_a_total{wire="binary"}`: 9,
		`t_b`:                      3,
		`t_c`:                      42,
		`t_h_seconds_sum`:          1.5,
	} {
		if got := samples[key]; got != want {
			t.Fatalf("sample %s = %v, want %v (all: %v)", key, got, want, samples)
		}
	}
	if f := e.Family("t_a_total"); f == nil || f.Type != "counter" || f.Help != "a counter" {
		t.Fatalf("family t_a_total parsed wrong: %+v", f)
	}
}

func TestMergedRenderInjectsLabels(t *testing.T) {
	shared := func() *Registry {
		r := NewRegistry()
		r.Counter("t_reqs_total", "requests", "tier", "freq")
		r.Histogram("t_lat_seconds", "latency", []float64{1})
		return r
	}
	a, b := shared(), shared()
	a.Counter("t_reqs_total", "requests", "tier", "freq").Add(1)
	b.Counter("t_reqs_total", "requests", "tier", "freq").Add(2)
	root := NewRegistry()
	root.Gauge("t_tenants", "tenant count").Set(2)

	var out bytes.Buffer
	err := WritePrometheusMerged(&out, []Labeled{
		{Reg: root},
		{Key: "tenant", Value: "a", Reg: a},
		{Key: "tenant", Value: "b", Reg: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"t_tenants 2",
		`t_reqs_total{tenant="a",tier="freq"} 1`,
		`t_reqs_total{tenant="b",tier="freq"} 2`,
		`t_lat_seconds_bucket{tenant="a",le="1"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged render missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE t_reqs_total"); n != 1 {
		t.Fatalf("TYPE header emitted %d times, want 1:\n%s", n, text)
	}
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if problems := Lint(e); len(problems) != 0 {
		t.Fatalf("lint of merged render: %v\n%s", problems, text)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	src := `# TYPE bad-name counter
# HELP no_type_total helped
# TYPE dup_total counter
# HELP dup_total helped
dup_total 1
dup_total 2
orphan_metric 5
# TYPE short counter
# HELP short helped
short 1
`
	e, err := ParseExposition(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	problems := strings.Join(Lint(e), "\n")
	for _, want := range []string{
		"missing # TYPE",     // no_type_total has HELP only
		"duplicate series",   // dup_total twice
		"no # TYPE header",   // orphan_metric
		"must end in _total", // counter `short`
	} {
		if !strings.Contains(problems, want) {
			t.Fatalf("lint missing %q in:\n%s", want, problems)
		}
	}
}

func TestConcurrentCounterExactness(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_n_total", "n")
	h := r.Histogram("t_h", "h", []float64{10})
	var wg sync.WaitGroup
	const goroutines, perG = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != goroutines*perG {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG || h.Sum() != goroutines*perG {
		t.Fatalf("histogram count/sum = %d/%v, want %d", h.Count(), h.Sum(), goroutines*perG)
	}
}

func TestParseLevelFormat(t *testing.T) {
	var buf bytes.Buffer
	h, err := newHandler(&buf, "WARN", "kv")
	if err != nil {
		t.Fatal(err)
	}
	slog.New(h).Info("hidden")
	slog.New(h).Warn("shown")
	if got := buf.String(); strings.Contains(got, "hidden") || !strings.Contains(got, "level=WARN msg=shown") {
		t.Fatalf("WARN handler wrote %q", got)
	}
	if _, err := newHandler(io.Discard, "loud", "kv"); err == nil {
		t.Fatal("level loud did not error")
	}
	if h, err := newHandler(io.Discard, "info", "json"); err != nil {
		t.Fatalf("format json: %v", err)
	} else if _, ok := h.(*slog.JSONHandler); !ok {
		t.Fatalf("format json gave a %T", h)
	}
	if _, err := newHandler(io.Discard, "info", "xml"); err == nil {
		t.Fatal("format xml did not error")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("empty go version")
	}
	r := NewRegistry()
	RegisterBuildInfo(r)
	var out bytes.Buffer
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `mcim_build_info{go_version="`) {
		t.Fatalf("build info gauge missing:\n%s", out.String())
	}
}
