// Package telemetry is ESD's low-overhead observability substrate: a
// process-wide metrics registry (atomic counters, gauges, and bounded
// log-scale histograms, exposed in Prometheus text format) plus the
// per-synthesis flight recorder every search can carry.
//
// The paper's evaluation (§5) is built on exactly the numbers a deployed
// engine otherwise cannot see — steps explored, forks taken per policy,
// solver time versus search time, distance-heuristic effectiveness — so
// the instruments here are wired through search, symex, solver, dist, and
// expr, and scraped through esdserve's GET /metrics.
//
// Design constraints, in order:
//
//  1. Hot-path cost. An instrument update is one uncontended atomic add; no
//     map lookups, no locks, no allocation. Instruments are created once at
//     package init and held in vars by their call sites.
//  2. No dependencies. The package uses only the standard library and is
//     imported by the lowest layers (internal/expr), so it must import none
//     of them back.
//  3. Two sources, one surface. New counters are native instruments;
//     pre-existing ad-hoc stats (the interner's footprint atomics, the
//     dist shared-cache counters) are exposed through CounterFunc/GaugeFunc
//     views over their single source of truth, so /metrics and /healthz can
//     never disagree about the same number.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic by contract, and a buggy negative delta must not make scraped
// series go backwards).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instrument whose value can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), bucket
// histBuckets is the +Inf overflow. 2^48 covers ~3 days in nanoseconds and
// any step count the engine can reach, so overflow is effectively never.
const histBuckets = 48

// Histogram is a bounded log2-scale histogram over non-negative int64
// observations. Observe is one atomic add on a fixed-size array — no
// allocation, no lock — which is what lets solver queries and frontier
// samples record on the hot path.
type Histogram struct {
	// scale multiplies bucket upper bounds in the Prometheus exposition
	// (1e-9 renders nanosecond observations as seconds-le buckets; 1
	// renders plain quantities).
	scale   float64
	buckets [histBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one observation (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v - 1)) // smallest i with v <= 2^i
	}
	if i > histBuckets {
		i = histBuckets
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CounterVec is a family of counters split by one label. With returns the
// child for a label value, creating it on first use; call sites cache the
// child so the steady state never touches the map.
type CounterVec struct {
	label string

	mu sync.Mutex
	m  map[string]*Counter
}

// With returns (creating if needed) the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.m[value]
	if c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// --- Registry ---------------------------------------------------------------

// metricKind is the Prometheus TYPE of an instrument.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// instrument is one registered series family.
type instrument struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	vec     *CounterVec
	hist    *Histogram
	fn      func() int64 // CounterFunc / GaugeFunc view over external state
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. The package-level Default registry is what esdserve
// scrapes; tests build their own to stay isolated.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: map[string]*instrument{}}
}

// Default is the process-wide registry all package-level instruments
// register into.
var Default = NewRegistry()

func (r *Registry) register(in *instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.instruments[in.name]; dup {
		panic("telemetry: duplicate metric " + in.name)
	}
	r.instruments[in.name] = in
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&instrument{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&instrument{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewCounterVec registers and returns a label-split counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, m: map[string]*Counter{}}
	r.register(&instrument{name: name, help: help, kind: kindCounter, vec: v})
	return v
}

// NewHistogram registers and returns a log2-scale histogram. scale
// multiplies bucket bounds at exposition time (pass 1e-9 for nanosecond
// observations rendered as seconds, 1 for plain quantities).
func (r *Registry) NewHistogram(name, help string, scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	h := &Histogram{scale: scale}
	r.register(&instrument{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time — the view used to surface pre-existing cumulative stats (interner
// hits, dist shared-cache hits) without a second accounting path.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(&instrument{name: name, help: help, kind: kindCounter, fn: fn})
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(&instrument{name: name, help: help, kind: kindGauge, fn: fn})
}

// Package-level constructors over the Default registry.

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewCounterVec registers a counter family in the Default registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return Default.NewCounterVec(name, help, label)
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, scale float64) *Histogram {
	return Default.NewHistogram(name, help, scale)
}

// NewCounterFunc registers a scrape-time counter view in the Default registry.
func NewCounterFunc(name, help string, fn func() int64) { Default.NewCounterFunc(name, help, fn) }

// NewGaugeFunc registers a scrape-time gauge view in the Default registry.
func NewGaugeFunc(name, help string, fn func() int64) { Default.NewGaugeFunc(name, help, fn) }

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4), sorted by metric name so scrapes are
// stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.instruments))
	for name := range r.instruments {
		names = append(names, name)
	}
	ins := make([]*instrument, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ins = append(ins, r.instruments[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, in := range ins {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", in.name, in.help, in.name, in.kind)
		switch {
		case in.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", in.name, in.counter.Value())
		case in.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", in.name, in.gauge.Value())
		case in.fn != nil:
			fmt.Fprintf(bw, "%s %d\n", in.name, in.fn())
		case in.vec != nil:
			writeVec(bw, in)
		case in.hist != nil:
			writeHistogram(bw, in)
		}
	}
	return bw.Flush()
}

// WritePrometheus renders the Default registry.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

func writeVec(w io.Writer, in *instrument) {
	v := in.vec
	v.mu.Lock()
	vals := make([]string, 0, len(v.m))
	for val := range v.m {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	counts := make([]int64, len(vals))
	for i, val := range vals {
		counts[i] = v.m[val].Value()
	}
	v.mu.Unlock()
	for i, val := range vals {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", in.name, v.label, val, counts[i])
	}
}

func writeHistogram(w io.Writer, in *instrument) {
	h := in.hist
	// Snapshot, then render cumulatively. Empty trailing buckets are
	// elided (the +Inf bucket always closes the series).
	var counts [histBuckets + 1]int64
	top := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 && i < histBuckets {
			top = i
		}
	}
	cum := int64(0)
	for i := 0; i <= top; i++ {
		cum += counts[i]
		bound := float64(uint64(1)<<uint(i)) * h.scale
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", in.name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", in.name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %s\n", in.name, strconv.FormatFloat(float64(h.sum.Load())*h.scale, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", in.name, h.count.Load())
}
