// Package metrics is the serving layer's central, dependency-free metrics
// registry: named families of counters, gauges and fixed-bucket histograms
// with Prometheus text-format (version 0.0.4) exposition. The paper's
// continuous-improvement loop is only operable in an enterprise deployment
// if the loop is visible — which questions fail, how often the miner merges,
// how hot the caches are, where request latency goes — and this package is
// the measurement substrate every other layer reports into.
//
// Design rules:
//
//   - Hot paths are lock-free. A resolved *Counter is one atomic add
//     (single-digit ns, see BenchmarkCounterInc); a *Histogram observation
//     is a short linear bucket scan plus two atomic updates. Label
//     resolution (Vec.With) takes a read lock and a map lookup, so hot call
//     sites resolve their children once and keep them.
//   - Nil instruments are no-ops. A nil *Counter/*Gauge/*Histogram accepts
//     Inc/Set/Observe and does nothing, so conditionally instrumented code
//     (a store opened without metrics) needs no guards at call sites.
//   - Family registration is idempotent: asking for an existing name with
//     the same kind and label set returns the existing family, so multiple
//     subsystems (or multiple Service instances sharing the process-global
//     registry) can wire the same catalog without coordination. A name
//     re-registered with a different kind or label arity panics — that is a
//     programming error, not an operational condition.
//   - Subsystems that already maintain their own counters (the generation
//     cache, admission control, the miner) are bridged at scrape time: an
//     OnScrape hook reads their snapshot and Sets the registry's values, so
//     the hot path is never instrumented twice, and a JSON stats surface
//     that reads the same subsystem snapshots agrees with /metrics.
//
// Exposition output is deterministic: families sort by name, series by
// label-value tuple, so golden-file tests and scrape diffs are stable.
package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets are the default latency buckets (seconds): 100µs to 10s in a
// roughly exponential ladder. They cover everything this system times — a
// cache hit (~µs), a pipeline generation (~100µs–10ms), a WAL fsync (~ms),
// an engine build (~100ms+).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// Registry is a set of metric families. All methods are safe for concurrent
// use. The zero value is not usable; use NewRegistry or Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	hooks    []func()
}

// family is one named metric: a kind, a label schema and its children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]*child
}

// child is one labeled series of a family.
type child struct {
	labelValues []string

	// counter/gauge state: counters count in n, gauges carry float64 bits
	// in bits. Histograms use bucketN (one per upper bound of buckets,
	// +Inf last) and accumulate the sum of observations in bits via CAS.
	n       atomic.Uint64
	bits    atomic.Uint64
	buckets []float64
	bucketN []atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-global registry — the default sink for every
// Service and the registry geneditd exposes on /metrics. The long-lived
// process, the daemon, holds one Service, so the global is unambiguous;
// tests that assert exact counter values should pass their own
// NewRegistry to stay isolated.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// OnScrape registers fn to run at the start of every Gather (and therefore
// every WriteText / HTTP scrape). Bridges use it to copy counters a
// subsystem already maintains into the registry. Hooks run in registration
// order with no registry locks held, so they may freely call Set on vecs
// and children.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// register resolves (or creates) a family, enforcing schema consistency.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("metrics: family " + name + " re-registered with a different kind or label arity")
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic("metrics: family " + name + " re-registered with different label names")
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// with resolves (or creates) the child for one label-value tuple.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic("metrics: family " + f.name + ": " + strconv.Itoa(len(values)) +
			" label values for " + strconv.Itoa(len(f.labels)) + " labels")
	}
	key := childKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		c.buckets = f.buckets
		c.bucketN = make([]atomic.Uint64, len(f.buckets)+1) // +Inf last
	}
	f.children[key] = c
	return c
}

// childKey length-prefix joins label values so no tuple can alias another.
func childKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte('|')
		b.WriteString(v)
	}
	return b.String()
}

// CounterVec is a counter family; resolve children with With.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family; resolve children with With.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family; resolve children with With.
type HistogramVec struct{ f *family }

// Counter registers (idempotently) a counter family. labels name the label
// schema; a family with no labels has exactly one series, resolved with
// With() and no arguments.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, nil, labels)}
}

// Gauge registers (idempotently) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, nil, labels)}
}

// Histogram registers (idempotently) a histogram family with fixed bucket
// upper bounds (ascending; +Inf is implicit). nil buckets selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram " + name + ": buckets must be strictly ascending")
		}
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, buckets, labels)}
}

// With resolves the counter for one label-value tuple (cached; the returned
// pointer is stable and should be kept by hot call sites).
func (v *CounterVec) With(values ...string) *Counter { return (*Counter)(v.f.with(values)) }

// With resolves the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return (*Gauge)(v.f.with(values)) }

// With resolves the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return (*Histogram)(v.f.with(values))
}

// Counter is a monotonically increasing count. A nil Counter is a no-op.
type Counter child

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Set overwrites the counter's value. It exists for scrape-time bridges
// from subsystems that keep their own monotonic counters (the generation
// cache, admission control); hot paths use Inc.
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.n.Store(v)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down. A nil Gauge is a no-op.
type Gauge child

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. A nil Histogram is
// a no-op.
type Histogram child

// Observe records one observation: the first bucket whose upper bound
// admits v is incremented (the implicit +Inf bucket catches the overflow)
// and v is added to the running sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.bucketN[i].Add(1)
	for {
		old := h.bits.Load()
		if h.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.bucketN {
		n += h.bucketN[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.bits.Load())
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// runHooks runs the OnScrape bridges (no registry locks held).
func (r *Registry) runHooks() {
	r.mu.RLock()
	hooks := r.hooks
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// sortedChildren snapshots a family's children ordered by label-value tuple.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
