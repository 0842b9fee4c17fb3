// Package telemetry is the observability layer of the module: a
// process-wide metrics registry, a Chrome-trace span sink, and the
// pprof/expvar serving surfaces the commands mount.
//
// The registry holds counters, gauges and histograms registered once by
// name. Each counter and gauge is one atomic word and each histogram one
// row of atomic buckets, so every write is allocation-free. Hot loops do
// not write metrics per event: the model checker's workers count in
// worker-local ints and flush them once per exploration. Metric handles
// are package-level vars in the instrumented packages — lookup cost is
// paid at init, never per event.
//
// Snapshot aggregates the registry into plain, JSON-marshalable data; the
// expvar export (Publish/Serve) and the commands' -metrics dumps are both
// views of it.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add adds d to the counter.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc is Add(1).
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the histogram resolution: power-of-two buckets, bucket i
// counting values in [2^(i-1), 2^i) (bucket 0 counts zero and negatives),
// with the last bucket absorbing everything ≥ 2^(histBuckets-2).
const histBuckets = 32

// Histogram is a power-of-two histogram: one row of atomic bucket counts.
type Histogram struct {
	name    string
	buckets [histBuckets]atomic.Int64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records v.
func (h *Histogram) Observe(v int64) { h.buckets[bucketOf(v)].Add(1) }

// Snapshot reads the histogram's buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	top := 0
	var buckets [histBuckets]int64
	for b := range h.buckets {
		if n := h.buckets[b].Load(); n != 0 {
			buckets[b] = n
			s.Count += n
			top = b
		}
	}
	if s.Count == 0 {
		return s
	}
	s.Buckets = append([]int64(nil), buckets[:top+1]...)
	return s
}

// HistogramSnapshot is the plain-data view of a histogram: Buckets[i]
// counts observations in [2^(i-1), 2^i) (Buckets[0]: values ≤ 0), trimmed
// after the last non-empty bucket.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time aggregation of a registry: every metric's
// value, keyed by registered name. It is plain data —
// JSON-marshalable as-is (map keys marshal sorted), comparable across
// processes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry holds metrics registered once by name. Registration is
// idempotent — asking for an existing name returns the existing metric —
// but re-registering a name as a different kind panics: two call sites
// disagreeing on what a name means is a bug, not a runtime condition.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry. Most callers want Default; a
// private registry isolates per-instance metrics (the store's per-directory
// counters) from the process-wide namespace.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// checkName panics when name is already registered under a different kind.
func (r *Registry) checkName(name, want string) {
	kinds := [...]struct {
		kind string
		used bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
	}
	for _, k := range kinds {
		if k.used && k.kind != want {
			panic(fmt.Sprintf("telemetry: %q already registered as a %s, requested as a %s", name, k.kind, want))
		}
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkName(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkName(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histograms[name]; h != nil {
		return h
	}
	r.checkName(name, "histogram")
	h := &Histogram{name: name}
	r.histograms[name] = h
	return h
}

// Names returns the registered metric names, sorted, for catalogues and
// tests.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot aggregates every registered metric. Writers may race the
// aggregation; each read is atomic, so every value in the snapshot is one
// a writer stored, though not all from a single instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	s := Snapshot{Counters: make(map[string]int64, len(counters))}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for _, g := range gauges {
			s.Gauges[g.name] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for _, h := range hists {
			s.Histograms[h.name] = h.Snapshot()
		}
	}
	return s
}

// defaultRegistry is the process-wide registry every instrumented package
// registers into; Default exposes it and the serving surfaces publish it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// NewCounter registers (or fetches) a counter in the default registry.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge registers (or fetches) a gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHistogram registers (or fetches) a histogram in the default registry.
func NewHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }
