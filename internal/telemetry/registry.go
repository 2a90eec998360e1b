// Package telemetry is the overlay's runtime observability layer: a
// concurrency-safe metrics registry (atomic counters, gauges, and
// log-bucketed histograms, optionally labeled into families), a
// Prometheus text exposition writer, and an HTTP server mounting
// /metrics, /debug/pprof/, and /healthz. The live datapath
// (internal/overlay) registers its counters here, and the control
// plane's LIST STATS / LINK STATUS surfaces render from the same
// handles, so the two views can never drift — the real-path analogue of
// the per-stage accounting the paper's Sect. 5 evaluation is built on.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType classifies a family for exposition.
type MetricType int

const (
	// TypeCounter is a monotonically increasing count.
	TypeCounter MetricType = iota
	// TypeGauge is a point-in-time value that may go up or down.
	TypeGauge
	// TypeHistogram is a log-bucketed distribution.
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter. The zero value
// outside a registry is usable but unexported; obtain counters from a
// Registry so they appear in /metrics.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64 // set only for func-backed counters
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is an atomic point-in-time value.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // set only for func-backed gauges
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; callers may race).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// HistogramOpts shapes a histogram's exponential (log-spaced) buckets:
// upper bounds Start, Start*Factor, Start*Factor², ... (Count bounds,
// plus the implicit +Inf bucket).
type HistogramOpts struct {
	Start  float64 // first bucket's upper bound; <= 0 means 1e-6 (1 µs)
	Factor float64 // bucket growth factor; <= 1 means 2
	Count  int     // number of finite buckets; <= 0 means 24
}

func (o *HistogramOpts) normalize() {
	if o.Start <= 0 {
		o.Start = 1e-6
	}
	if o.Factor <= 1 {
		o.Factor = 2
	}
	if o.Count <= 0 {
		o.Count = 24
	}
}

// LatencyBuckets are the default log-spaced buckets for latency
// histograms: 1 µs to ~8.4 s by powers of two, the span a frame can
// plausibly spend anywhere in the overlay datapath.
var LatencyBuckets = HistogramOpts{Start: 1e-6, Factor: 2, Count: 24}

// Histogram is a log-bucketed distribution with atomic buckets: Observe
// is lock-free and snapshot iteration is cheap.
type Histogram struct {
	bounds  []float64 // finite upper bounds, ascending
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(opts HistogramOpts) *Histogram {
	opts.normalize()
	h := &Histogram{bounds: make([]float64, opts.Count), counts: make([]atomic.Uint64, opts.Count)}
	b := opts.Start
	for i := range h.bounds {
		h.bounds[i] = b
		b *= opts.Factor
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of one value for the cost of one.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(n)
	} else {
		h.inf.Add(n)
	}
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf bucket as the final element.
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.bounds)+1)
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	cumulative[len(h.bounds)] = acc + h.inf.Load()
	return h.bounds, cumulative, h.count.Load(), h.Sum()
}

// labelSep joins label values into child keys; it cannot appear in
// reasonable label values (0xff is invalid UTF-8).
const labelSep = "\xff"

// family is one named metric family: a scalar metric is a family with no
// labels and a single child keyed "".
type family struct {
	name, help string
	typ        MetricType
	labels     []string
	histOpts   HistogramOpts

	mu       sync.RWMutex
	children map[string]any      // Counter/Gauge/Histogram by joined label values
	values   map[string][]string // joined key → label values
}

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = make()
	f.children[key] = c
	f.values[key] = append([]string(nil), values...)
	return c
}

func (f *family) delete(values []string) {
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	delete(f.children, key)
	delete(f.values, key)
	f.mu.Unlock()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns (creating on first use) the child for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Lookup returns the child for the label values, or nil when there is
// none: never created, or deleted with what it labelled (a removed link).
// For a writer that must not bring a deleted child back.
func (v *CounterVec) Lookup(values ...string) *Counter {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	c, _ := v.f.children[strings.Join(values, labelSep)].(*Counter)
	return c
}

// Delete removes the child for the label values (e.g. a removed link).
func (v *CounterVec) Delete(values ...string) { v.f.delete(values) }

// Sum returns the sum of every child's value.
func (v *CounterVec) Sum() uint64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	var s uint64
	for _, c := range v.f.children {
		s += c.(*Counter).Load()
	}
	return s
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns (creating on first use) the child for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Func installs a callback-backed child evaluated at snapshot time
// (e.g. a queue depth read from a channel).
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.child(values, func() any { return &Gauge{fn: fn} })
}

// Delete removes the child for the label values.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns (creating on first use) the child for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.histOpts) }).(*Histogram)
}

// Delete removes the child for the label values.
func (v *HistogramVec) Delete(values ...string) { v.f.delete(values) }

// Registry holds metric families and renders snapshots. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// DeleteLabel removes, from every family that has the label, the children
// whose value for it is value: everything registered about a link or an
// endpoint that is gone, without a list of those families kept by hand.
func (r *Registry) DeleteLabel(label, value string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		col := slices.Index(f.labels, label)
		if col < 0 {
			continue
		}
		f.mu.Lock()
		for key, values := range f.values {
			if values[col] == value {
				delete(f.children, key)
				delete(f.values, key)
			}
		}
		f.mu.Unlock()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help string, typ MetricType, labels []string, histOpts HistogramOpts) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, histOpts: histOpts,
		labels:   append([]string(nil), labels...),
		children: make(map[string]any),
		values:   make(map[string][]string),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, TypeCounter, nil, HistogramOpts{})
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time (for counts maintained elsewhere, e.g. the routing
// cache's atomics).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.family(name, help, TypeCounter, nil, HistogramOpts{})
	f.child(nil, func() any { return &Counter{fn: fn} })
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, TypeCounter, labels, HistogramOpts{})}
}

// Gauge registers (or fetches) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, TypeGauge, nil, HistogramOpts{})
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge evaluated from fn at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, TypeGauge, nil, HistogramOpts{})
	f.child(nil, func() any { return &Gauge{fn: fn} })
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, TypeGauge, labels, HistogramOpts{})}
}

// Histogram registers (or fetches) a label-less histogram.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	f := r.family(name, help, TypeHistogram, nil, opts)
	return f.child(nil, func() any { return newHistogram(opts) }).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, opts HistogramOpts, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, TypeHistogram, labels, opts)}
}

// Sample is one child's snapshot within a family.
type Sample struct {
	LabelValues []string
	Value       float64 // counters and gauges

	// Histogram data (Hist != nil for histogram families): Bounds are
	// the finite upper bounds and Cumulative the cumulative counts, with
	// one extra trailing element for the +Inf bucket.
	Hist *HistSnapshot
}

// HistSnapshot is a histogram child's frozen state.
type HistSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// FamilySnapshot is one family's frozen state.
type FamilySnapshot struct {
	Name, Help string
	Type       MetricType
	LabelNames []string
	Samples    []Sample
}

// Gather snapshots every family, sorted by family name and label
// values, suitable for exposition or programmatic assertion.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, LabelNames: f.labels}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := Sample{LabelValues: f.values[k]}
			switch c := f.children[k].(type) {
			case *Counter:
				s.Value = float64(c.Load())
			case *Gauge:
				s.Value = c.Value()
			case *Histogram:
				b, cum, cnt, sum := c.snapshot()
				s.Hist = &HistSnapshot{Bounds: b, Cumulative: cum, Count: cnt, Sum: sum}
			}
			fs.Samples = append(fs.Samples, s)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}
