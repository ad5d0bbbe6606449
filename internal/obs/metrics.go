// Package obs is the observability layer: a lightweight metrics
// registry (counters, gauges, fixed-bucket histograms — stdlib only)
// and streaming event sinks for the TBTSO abstract machine: a
// registry-feeding metrics sink and a Chrome trace-event / Perfetto
// JSON exporter.
//
// The registry is the measurement substrate the paper's claims hang
// on: Δ-bounded commit latency, drain-cause breakdowns, HP reclaim
// counts, FFBL revocation costs and quiescence waits all land here as
// named metrics, render as text or JSON, and feed the bench harness's
// machine-readable figure series. See docs/OBSERVABILITY.md.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Safe for
// concurrent use. It fills a cache line, so a []Counter bank gives each
// worker its own line without false sharing.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
//
//tbtso:fencefree
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//tbtso:fencefree
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Publisher tracks the high-water mark of a monotonically growing
// source value so repeated publishes into a shared Counter add only
// the delta since the previous publish. Distinct source instances
// (each with its own Publisher) therefore accumulate into one
// registry counter, while re-publishing the same source is idempotent.
// Not safe for concurrent use; publish from one goroutine.
type Publisher struct {
	last uint64
}

// Publish raises c by the growth of total since the last call.
func (p *Publisher) Publish(c *Counter, total uint64) {
	if total > p.last {
		c.Add(total - p.last)
		p.last = total
	}
}

// Gauge is an instantaneous atomic value that can go up and down.
// Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//tbtso:fencefree
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (which may be negative).
//
//tbtso:fencefree
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 samples. Bucket i
// counts samples v with v <= bounds[i] (and bounds[i-1] < v); one
// overflow bucket counts everything above the last bound. All methods
// are safe for concurrent use; Observe is lock- and allocation-free.
type Histogram struct {
	bounds []int64 // ascending upper bounds, fixed at creation
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds (see LinearBuckets, ExpBuckets). It panics on an empty
// or unsorted bounds slice.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one sample.
//
//tbtso:fencefree
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the sample mean (0 if empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// upper edge of the bucket containing it, capped at Max (so a bucket
// holding the largest sample never reports more than that sample).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > target {
			if i < len(h.bounds) {
				return min(h.bounds[i], h.Max())
			}
			return h.Max()
		}
	}
	return h.Max()
}

// Buckets returns (bound, count) pairs including the overflow bucket,
// whose bound is reported as math.MaxInt64.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, len(h.counts))
	for i := range h.counts {
		bound := int64(math.MaxInt64)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out = append(out, BucketCount{Bound: bound, Count: h.counts[i].Load()})
	}
	return out
}

// BucketCount is one histogram bucket: samples <= Bound (cumulative
// from the previous bound).
type BucketCount struct {
	Bound int64  `json:"bound"`
	Count uint64 `json:"count"`
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    int64   // bucket upper bound (Max for the overflow bucket)
	Fraction float64 // fraction of samples <= Value
}

// CDF returns one point per nonempty bucket of Buckets, or nil if the
// histogram is empty. The last point's Fraction is 1.
func (h *Histogram) CDF() []CDFPoint {
	bs := h.Buckets()
	var total uint64
	for _, b := range bs {
		total += b.Count
	}
	if total == 0 {
		return nil
	}
	var out []CDFPoint
	var seen uint64
	for _, b := range bs {
		if b.Count == 0 {
			continue
		}
		seen += b.Count
		v := b.Bound
		if v == math.MaxInt64 {
			v = h.Max()
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(seen) / float64(total)})
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width int64, n int) []int64 {
	if n <= 0 || width <= 0 {
		panic("obs: LinearBuckets needs n > 0 and width > 0")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}

// ExpBuckets returns n ascending bounds start, start*factor, ... —
// rounded to integers, deduplicated upward so they stay strictly
// ascending.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]int64, n)
	v := float64(start)
	prev := int64(0)
	for i := range out {
		b := int64(math.Round(v))
		if b <= prev {
			b = prev + 1
		}
		out[i] = b
		prev = b
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. Metric accessors
// get-or-create: the first caller fixes the metric's type (and a
// histogram's buckets); subsequent calls return the same instance.
// Mixing types under one name panics — it is a programming error.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkName(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds if needed; an existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// LookupCounter returns the named counter without creating it, for
// readers that must not perturb the registry (the benchmark's paper
// workload reading what the figure harness published).
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	return c, ok
}

// Metric is one snapshotted registry entry.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"

	// Value is the counter or gauge value.
	Value int64 `json:"value,omitempty"`

	// Histogram summary (Kind == "histogram" only).
	Count   uint64        `json:"count,omitempty"`
	Sum     int64         `json:"sum,omitempty"`
	Mean    float64       `json:"mean,omitempty"`
	Min     int64         `json:"min,omitempty"`
	Max     int64         `json:"max,omitempty"`
	P50     int64         `json:"p50,omitempty"`
	P90     int64         `json:"p90,omitempty"`
	P99     int64         `json:"p99,omitempty"`
	P999    int64         `json:"p999,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every metric, sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: int64(c.Load())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Load()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Kind: "histogram",
			Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
			Buckets: h.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders a human-readable metrics summary, one line per
// metric, sorted by name.
func (r *Registry) WriteText(w io.Writer) {
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(w, "%-44s n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
				m.Name, m.Count, m.Mean, m.Min, m.P50, m.P90, m.P99, m.P999, m.Max)
		default:
			fmt.Fprintf(w, "%-44s %d\n", m.Name, m.Value)
		}
	}
}

// WriteJSON renders the snapshot as a JSON array of metrics.
func (r *Registry) WriteJSON(w io.Writer) error {
	return EncodeDoc(w, r.Snapshot())
}
