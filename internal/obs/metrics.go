// Package obs is the zero-dependency observability layer: a metrics
// registry rendered in the Prometheus text exposition format, the log/slog
// set-up the binaries share, and build-info plumbing. It exists so every layer of
// the collection stack (collect, wal, tenant, the binaries) can expose
// runtime signal without pulling in client_golang or any other module.
//
// The registry hands out pre-resolved handles — a (name, label-set) pair
// is registered once and the returned *Counter / *Gauge / *Histogram is a
// single atomic word (or fixed array of them). The hot ingest path
// therefore pays one atomic add per event: no map lookups, no label
// hashing, no allocations.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use, but callers normally obtain one from Registry.Counter so it renders.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative deltas are ignored: Prometheus
// counters must never decrease, and silently clamping beats corrupting the
// series over a caller bug.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are cumulative upper
// bounds; an implicit +Inf bucket always exists. Observe is lock-free:
// a linear scan over the (small, fixed) bound slice plus two atomics.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			goto sum
		}
	}
	h.inf.Add(1)
sum:
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bound set for request-latency histograms,
// in seconds: 100µs up to 2.5s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// SizeBuckets is the default bound set for count-shaped histograms
// (reports per drain, items per batch): powers of four from 1 to ~1M.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, label-set) instance inside a family. Exactly one of
// c/g/gf/h is set, matching the family kind.
type series struct {
	labels string // rendered `k="v",k2="v2"` or ""
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

type family struct {
	name     string
	help     string
	kind     metricKind
	buckets  []float64
	series   []*series
	byLabels map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is idempotent: asking for the same (name, labels) again
// returns the existing handle, so independently constructed components can
// share a series (e.g. a re-created tenant reusing its auth counter).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// renderLabels turns alternating key/value pairs into the exposition label
// body (`k="v",...`). Panics on malformed input: metric registration is
// construction-time code and a bad label set is a programming error.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label key/value list %q", kv))
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if !labelNameRE.MatchString(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register finds or creates the family and the series for (name, kv).
// Returns the series; fills in the value handle on first registration.
func (r *Registry) register(name, help string, kind metricKind, buckets []float64, kv []string) *series {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if kind == counterKind && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	labels := renderLabels(kv)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, byLabels: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if s := f.byLabels[labels]; s != nil {
		return s
	}
	s := &series{labels: labels}
	switch kind {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	case histogramKind:
		b := f.buckets
		s.h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
	}
	f.byLabels[labels] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a counter series. kv is an alternating
// label key/value list; the name must end in _total.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.register(name, help, counterKind, nil, kv).c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.register(name, help, gaugeKind, nil, kv).g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same (name, labels) replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	s := r.register(name, help, gaugeKind, nil, kv)
	r.mu.Lock()
	s.g, s.gf = nil, fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a fixed-bucket histogram series. The
// bucket bounds of a family are fixed by its first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets must be sorted", name))
	}
	return r.register(name, help, histogramKind, buckets, kv).h
}

// WritePrometheus renders every family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheusMerged(w, []Labeled{{Reg: r}})
}

// Handler returns an http.Handler serving the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Labeled pairs a registry with a label injected into every series it
// contributes to a merged render. An empty Key injects nothing.
type Labeled struct {
	Key   string
	Value string
	Reg   *Registry
}

// WritePrometheusMerged renders several registries as one exposition,
// grouping same-named families under a single HELP/TYPE header and
// injecting each set's label (if any) into its series. This is how the
// tenant root mux serves a global roll-up: the registry-level set
// unlabeled plus every tenant's collect registry under tenant="name".
func WritePrometheusMerged(w io.Writer, sets []Labeled) error {
	// Snapshot every family under its registry lock: registration (e.g. a
	// tenant being created mid-scrape) may append series concurrently, and
	// GaugeFunc may swap a series' function. Values themselves are atomics
	// and are read lock-free at write time.
	type famSnap struct {
		inject string
		help   string
		kind   metricKind
		series []series
	}
	var order []string
	byName := make(map[string][]famSnap)
	kinds := make(map[string]metricKind)
	for _, set := range sets {
		if set.Reg == nil {
			continue
		}
		inject := ""
		if set.Key != "" {
			inject = renderLabels([]string{set.Key, set.Value})
		}
		set.Reg.mu.Lock()
		for _, f := range set.Reg.families {
			snap := famSnap{inject: inject, help: f.help, kind: f.kind, series: make([]series, len(f.series))}
			for i, s := range f.series {
				snap.series[i] = *s
			}
			if k, ok := kinds[f.name]; ok {
				if k != f.kind {
					set.Reg.mu.Unlock()
					return fmt.Errorf("obs: merged metric %q is both %s and %s", f.name, k, f.kind)
				}
			} else {
				kinds[f.name] = f.kind
				order = append(order, f.name)
			}
			byName[f.name] = append(byName[f.name], snap)
		}
		set.Reg.mu.Unlock()
	}

	var b strings.Builder
	for _, name := range order {
		head := byName[name][0]
		fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(head.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, head.kind)
		for _, snap := range byName[name] {
			writeFamily(&b, name, snap.kind, snap.inject, snap.series)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// joinLabels combines an injected label set with a series label set.
func joinLabels(inject, labels string) string {
	switch {
	case inject == "":
		return labels
	case labels == "":
		return inject
	default:
		return inject + "," + labels
	}
}

func writeFamily(b *strings.Builder, name string, kind metricKind, inject string, series []series) {
	for _, s := range series {
		labels := joinLabels(inject, s.labels)
		switch kind {
		case counterKind:
			writeSample(b, name, labels, float64(s.c.Value()))
		case gaugeKind:
			v := 0.0
			if s.gf != nil {
				v = s.gf()
			} else {
				v = s.g.Value()
			}
			writeSample(b, name, labels, v)
		case histogramKind:
			cum := int64(0)
			for i, ub := range s.h.bounds {
				cum += s.h.counts[i].Load()
				writeSample(b, name+"_bucket", joinLabels(labels, `le="`+formatFloat(ub)+`"`), float64(cum))
			}
			cum += s.h.inf.Load()
			writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
			writeSample(b, name+"_sum", labels, s.h.Sum())
			writeSample(b, name+"_count", labels, float64(s.h.Count()))
		}
	}
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
