// Package telemetry is the runtime observability layer of the EchoImage
// serving stack: a process-wide registry of counters, gauges and
// fixed-bucket latency histograms with lock-free hot-path updates, a
// Prometheus text-format exposition writer, per-request trace spans and
// an admin HTTP handler (/metrics, /varz, /healthz, /debug/pprof/*).
//
// Scope split with internal/metrics: that package computes the paper's
// offline evaluation measures (§VI-A2 recall/precision/F-measure over a
// finished experiment); this one observes a live daemon. Registration
// takes a short mutex and happens at startup; every update on the
// request path — Counter.Inc, Gauge.Set, Histogram.Observe — is a plain
// atomic operation, so instrumentation never serializes the pipeline.
package telemetry

import (
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters are normally obtained from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, live
// model version).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is lock-free: one atomic add on the bucket, one on the count,
// and a CAS loop on the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
}

// DefBuckets is the default latency bucket layout, in seconds. It spans
// sub-millisecond DSP stages up to multi-second full-capture processing.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// TrainBuckets suits model (re)training durations, in seconds.
var TrainBuckets = []float64{.05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramValue is a consistent read of a histogram: cumulative bucket
// counts (Prometheus `le` semantics), the total count and the sum.
type HistogramValue struct {
	Bounds     []float64 // upper bounds; the final +Inf is implicit
	Cumulative []uint64  // len(Bounds)+1, last entry == Count
	Count      uint64
	Sum        float64
}

// Value snapshots the histogram. Count is derived from the bucket loads
// so buckets and count always agree with each other.
func (h *Histogram) Value() HistogramValue {
	v := HistogramValue{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		v.Cumulative[i] = cum
	}
	v.Count = cum
	v.Sum = math.Float64frombits(h.sum.Load())
	return v
}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one labelled instance within a family.
type metric struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every labelling of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	metrics []*metric          // registration order, stable for exposition
	index   map[string]*metric // keyed by serialized labels
}

// Registry holds the process's metric families. Construct with
// NewRegistry; registration methods are idempotent (the same name and
// labels return the same metric) and safe for concurrent use, though
// callers normally register once at startup and keep the pointers.
type Registry struct {
	mu       sync.Mutex
	families []*family          // guarded by mu
	index    map[string]*family // guarded by mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// namePattern is the series namespace: one flat, snake_case,
// echoimage-prefixed space, so dashboards never meet an invented name.
var namePattern = regexp.MustCompile(`^echoimage_[a-z0-9_]+$`)

// lookup returns the family and labelled metric, creating either as
// needed. It panics on a name outside namePattern and on a kind
// conflict: series are registered at construction, so either is a
// programming error that the first test building the component hits.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		if !namePattern.MatchString(name) {
			panic("telemetry: metric name " + strconv.Quote(name) + " does not match " + namePattern.String())
		}
		f = &family{name: name, help: help, kind: kind, buckets: buckets, index: make(map[string]*metric)}
		r.families = append(r.families, f)
		r.index[name] = f
	} else if f.kind != kind {
		panic("telemetry: metric " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
	}
	key := labelKey(labels)
	m := f.index[key]
	if m == nil {
		m = &metric{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			m.counter = &Counter{}
		case kindGauge:
			m.gauge = &Gauge{}
		case kindHistogram:
			m.hist = newHistogram(f.buckets)
		}
		f.metrics = append(f.metrics, m)
		f.index[key] = m
	}
	return m
}

// Counter registers (or returns) the counter for name and labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// Gauge registers (or returns) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram registers (or returns) the histogram for name and labels.
// The bucket layout is fixed by the first registration of the family;
// nil buckets mean DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).hist
}

// LabelSet is one metric per value of a closed label set, plus an
// "other" metric for every value outside it. A caller can label by a
// value a peer chose (a request's type, an error code) without a bogus
// value ever registering a new series.
type LabelSet[M any] struct {
	byValue map[string]M
	other   M
}

// CounterSet and HistogramSet are the label sets the Registry builds.
type (
	CounterSet   = LabelSet[*Counter]
	HistogramSet = LabelSet[*Histogram]
)

// With returns the metric for value, or the "other" metric when value is
// not in the set.
func (s *LabelSet[M]) With(value string) M {
	if m, ok := s.byValue[value]; ok {
		return m
	}
	return s.other
}

func newLabelSet[M any](key string, values []string, get func(Label) M) *LabelSet[M] {
	s := &LabelSet[M]{byValue: make(map[string]M, len(values))}
	for _, v := range values {
		s.byValue[v] = get(L(key, v))
	}
	s.other = get(L(key, "other"))
	return s
}

// CounterSet registers (or returns) the counters for name labelled
// key=value, one per listed value plus key="other".
func (r *Registry) CounterSet(name, help, key string, values ...string) *CounterSet {
	return newLabelSet(key, values, func(l Label) *Counter {
		return r.lookup(name, help, kindCounter, nil, []Label{l}).counter
	})
}

// HistogramSet registers (or returns) the histograms for name labelled
// key=value, one per listed value plus key="other", on DefBuckets.
func (r *Registry) HistogramSet(name, help, key string, values ...string) *HistogramSet {
	return newLabelSet(key, values, func(l Label) *Histogram {
		return r.lookup(name, help, kindHistogram, DefBuckets, []Label{l}).hist
	})
}

// SampleSnapshot is one labelled metric in a snapshot. Exactly one of
// Value (counter/gauge) or Histogram is set.
type SampleSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"` // +Inf encoded as the string "+Inf" by /varz? kept numeric; math.Inf marshals fail — excluded
	Count      uint64  `json:"count"`
}

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    string           `json:"kind"`
	Metrics []SampleSnapshot `json:"metrics"`
}

// Snapshot reads every metric. Families and metrics appear in
// registration order, so output is deterministic.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, m := range f.metrics {
			s := SampleSnapshot{}
			if len(m.labels) > 0 {
				s.Labels = make(map[string]string, len(m.labels))
				for _, l := range m.labels {
					s.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				v := float64(m.counter.Value())
				s.Value = &v
			case kindGauge:
				v := float64(m.gauge.Value())
				s.Value = &v
			case kindHistogram:
				hv := m.hist.Value()
				s.Count = hv.Count
				s.Sum = hv.Sum
				// The +Inf bucket equals Count and +Inf does not survive
				// JSON encoding, so /varz carries the finite buckets only.
				s.Buckets = make([]BucketSnapshot, len(hv.Bounds))
				for i, ub := range hv.Bounds {
					s.Buckets[i] = BucketSnapshot{UpperBound: ub, Count: hv.Cumulative[i]}
				}
			}
			fs.Metrics = append(fs.Metrics, s)
		}
		out = append(out, fs)
	}
	return out
}
