// Package obs is the live datapath's observability layer: a process-wide
// registry of low-overhead metrics (counters, gauges, log2-bucket
// histograms), opt-in per-collective trace events behind a nil-checked
// Tracer, and a pool-leak audit that reconciles buffer-pool Get/Put
// balances across a run.
//
// Design constraints, in priority order:
//
//  1. The always-on metrics must cost nothing but a handful of atomic
//     adds on the hot path — no allocation, no locking, no formatting.
//     Hot paths capture *Counter/*Histogram pointers once (package init)
//     and update them directly; the registry's map and mutex are touched
//     only at creation and snapshot time.
//  2. The disabled trace path must cost one branch (an atomic pointer
//     load and nil check in Emit). Tracing is for debugging and tests;
//     production runs leave it nil.
//  3. Reading the metrics must never perturb them: snapshots are atomic
//     loads, rendered through the internal/metrics table toolkit the
//     experiment harness already uses.
//
// The paper's evaluation (§5) leans on exactly this kind of cheap online
// accounting — per-block and per-slot counters on the datapath — and the
// PR-3 pooled buffer lifecycle makes Get/Put balance a correctness
// invariant this package makes observable (see audit.go).
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"omnireduce/internal/metrics"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a point-in-time value (queue depth, in-flight operations).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the number of log2 histogram buckets. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0,
// bucket i (i > 0) holds v in [2^(i-1), 2^i). The last bucket absorbs
// everything larger. 48 buckets cover durations beyond 3 days in
// nanoseconds and sizes beyond 100 TB in bytes.
const HistBuckets = 48

// Histogram is a fixed log2-bucket histogram. Observe is wait-free: one
// atomic add per bucket/count/sum, no allocation ever.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is an atomic-read copy of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the arithmetic mean of the observed samples (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from
// the bucket boundaries: the top edge of the bucket containing the
// q*Count-th sample. Log2 buckets bound the answer within 2x.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen int64
	for i, b := range s.Buckets {
		seen += b
		if seen > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<uint(HistBuckets) - 1
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<uint(i) - 1
}

// Registry is a named collection of metrics. Metric creation
// (get-or-create by name) takes a mutex; updates through the returned
// pointers are lock-free. The zero value is not usable; call NewRegistry
// or use Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// creation order per kind, for stable rendering
	counterOrder []string
	gaugeOrder   []string
	histOrder    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the datapath publishes into.
var Default = NewRegistry()

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.counterOrder = append(r.counterOrder, name)
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.gaugeOrder = append(r.gaugeOrder, name)
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.histOrder = append(r.histOrder, name)
	}
	return h
}

// Reset zeroes every metric in place. Metric identity is preserved, so
// pointers captured by hot paths keep working; use between benchmark or
// test sections that assert on deltas.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHist is one histogram in a snapshot; Buckets holds only the
// occupied prefix (trailing zero buckets are trimmed).
type NamedHist struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50"`
	P95     int64   `json:"p95"`
	P99     int64   `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// RegistrySnapshot is a consistent-enough copy of a registry: each value
// is read atomically; the set of metrics is captured under the registry
// lock.
type RegistrySnapshot struct {
	Counters []NamedValue `json:"counters"`
	Gauges   []NamedValue `json:"gauges"`
	Hists    []NamedHist  `json:"histograms"`
}

// Snapshot captures every metric in creation order.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counterNames := append([]string(nil), r.counterOrder...)
	gaugeNames := append([]string(nil), r.gaugeOrder...)
	histNames := append([]string(nil), r.histOrder...)
	counters := make([]*Counter, len(counterNames))
	for i, n := range counterNames {
		counters[i] = r.counters[n]
	}
	gauges := make([]*Gauge, len(gaugeNames))
	for i, n := range gaugeNames {
		gauges[i] = r.gauges[n]
	}
	hists := make([]*Histogram, len(histNames))
	for i, n := range histNames {
		hists[i] = r.hists[n]
	}
	r.mu.Unlock()

	var s RegistrySnapshot
	for i, n := range counterNames {
		s.Counters = append(s.Counters, NamedValue{Name: n, Value: counters[i].Load()})
	}
	for i, n := range gaugeNames {
		s.Gauges = append(s.Gauges, NamedValue{Name: n, Value: gauges[i].Load()})
	}
	for i, n := range histNames {
		hs := hists[i].Snapshot()
		nh := NamedHist{
			Name:  n,
			Count: hs.Count,
			Sum:   hs.Sum,
			Mean:  hs.Mean(),
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
		last := -1
		for b, v := range hs.Buckets {
			if v != 0 {
				last = b
			}
		}
		if last >= 0 {
			nh.Buckets = append([]int64(nil), hs.Buckets[:last+1]...)
		}
		s.Hists = append(s.Hists, nh)
	}
	return s
}

// Tables renders the registry as metrics tables: one for counters and
// gauges, one summary row per histogram.
func (r *Registry) Tables(titlePrefix string) []*metrics.Table {
	snap := r.Snapshot()
	var out []*metrics.Table
	if len(snap.Counters)+len(snap.Gauges) > 0 {
		t := metrics.NewTable(titlePrefix+"counters", "metric", "value")
		for _, nv := range snap.Counters {
			t.AddRow(nv.Name, nv.Value)
		}
		for _, nv := range snap.Gauges {
			t.AddRow(nv.Name+" (gauge)", nv.Value)
		}
		out = append(out, t)
	}
	if len(snap.Hists) > 0 {
		t := metrics.NewTable(titlePrefix+"histograms", "metric", "count", "mean", "p50<=", "p95<=", "p99<=")
		for _, h := range snap.Hists {
			t.AddRow(h.Name, h.Count, fmt.Sprintf("%.4g", h.Mean), h.P50, h.P95, h.P99)
		}
		out = append(out, t)
	}
	return out
}

// SortedCounterNames returns the registry's counter names sorted
// lexicographically (test helper).
func (r *Registry) SortedCounterNames() []string {
	r.mu.Lock()
	names := append([]string(nil), r.counterOrder...)
	r.mu.Unlock()
	sort.Strings(names)
	return names
}
