// Package obs is the suite's observability layer: a metrics registry
// with a Prometheus text endpoint, a span tracer over the run's event
// stream, a live progress tracker, and the HTTP server behind
// `lmbench -serve`.
//
// The layer is strictly out-of-band. Nothing in it is ever written
// into the results database, and nothing in it executes inside a timed
// interval: metrics and spans are fed from the suite's event stream
// (which fires between experiments) and from timing.Probe callbacks
// (which the harness invokes only between clock readings). On
// simulated machines the guarantee is absolute — virtual clocks
// advance only when simulated work is charged — and the golden-SHA
// test pins it: a full run with every observer attached produces a
// byte-identical database. See DESIGN.md.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The hot path
// (Inc/Add) is one atomic add: no locks, no allocation.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored (counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits in
// an atomic word; Set is wait-free, Add is a short CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
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

// Histogram counts observations into fixed buckets. Buckets are chosen
// at construction; Observe is a binary search plus two atomic adds —
// no locks, no allocation, safe between timed batches.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bound >= v; the extra slot is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n log-spaced histogram bounds starting at start
// and growing by factor: the fixed bucket layout used for duration
// histograms (choosing buckets up front keeps Observe allocation-free).
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind is the Prometheus family type.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one named metric family: a type, a help string, and its
// series (one per label value; the empty label is the unlabeled
// series).
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // label key for Vec families, "" otherwise

	mu     sync.Mutex
	order  []string
	series map[string]any // *Counter, *Gauge, *Histogram, or func() float64
	bounds []float64      // histogram families share one bucket layout
}

func (f *family) get(labelValue string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[labelValue]; ok {
		return m
	}
	m := make()
	f.series[labelValue] = m
	f.order = append(f.order, labelValue)
	return m
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use;
// registering an already-registered family returns the existing one
// (with a panic only on a type conflict, which is always a programming
// error).
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, label string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s}, was %s{%s}",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label, series: map[string]any{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, "")
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, "")
	return f.get("", func() any { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge to counters a part of the run keeps itself
// (a journal's bytes, a fault injector's totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounter, "")
	f.get("", func() any { return fn })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, "")
	f.get("", func() any { return fn })
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, kindHistogram, "")
	f.mu.Lock()
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
		sort.Float64s(f.bounds)
	}
	bounds = f.bounds
	f.mu.Unlock()
	return f.get("", func() any { return newHistogram(bounds) }).(*Histogram)
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, label)}
}

// With returns the counter for one label value, creating it on first
// use. The returned counter is cached; hot paths should hold on to it.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.get(labelValue, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, label)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(labelValue string) *Gauge {
	return v.f.get(labelValue, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family; all
// series share the bucket layout.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	f := r.family(name, help, kindHistogram, label)
	f.mu.Lock()
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
		sort.Float64s(f.bounds)
	}
	f.mu.Unlock()
	return &HistogramVec{f}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(labelValue string) *Histogram {
	v.f.mu.Lock()
	bounds := v.f.bounds
	v.f.mu.Unlock()
	return v.f.get(labelValue, func() any { return newHistogram(bounds) }).(*Histogram)
}

// WritePrometheus renders every family in the text exposition format,
// families in registration order and series in first-use order — a
// stable page layout that diffs cleanly between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	labels := append([]string(nil), f.order...)
	series := make([]any, len(labels))
	for i, l := range labels {
		series[i] = f.series[l]
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for i, m := range series {
		if err := f.writeSeries(w, labels[i], m); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, labelValue string, m any) error {
	base := f.name + labelPair(f.label, labelValue, "")
	switch m := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %d\n", base, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %s\n", base, formatValue(m.Value()))
		return err
	case func() float64:
		_, err := fmt.Fprintf(w, "%s %s\n", base, formatValue(m()))
		return err
	case *Histogram:
		cum := int64(0)
		for i, bound := range m.bounds {
			cum += m.buckets[i].Load()
			series := f.name + "_bucket" + labelPair(f.label, labelValue, formatValue(bound))
			if _, err := fmt.Fprintf(w, "%s %d\n", series, cum); err != nil {
				return err
			}
		}
		inf := f.name + "_bucket" + labelPair(f.label, labelValue, "+Inf")
		if _, err := fmt.Fprintf(w, "%s %d\n", inf, m.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelPair(f.label, labelValue, ""), formatValue(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			labelPair(f.label, labelValue, ""), m.Count())
		return err
	}
	return fmt.Errorf("obs: unknown series type %T", m)
}

// labelPair renders the {label="value"} clause, folding in the
// histogram's le label when set. Empty everything renders nothing.
func labelPair(label, value, le string) string {
	var parts []string
	if label != "" {
		parts = append(parts, label+`="`+escapeLabel(value)+`"`)
	}
	if le != "" {
		parts = append(parts, `le="`+le+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel applies the exposition format's label-value escaping:
// backslash, newline and double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
