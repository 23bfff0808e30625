package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// keyFor encodes a metric identity as name{k1=v1,k2=v2} with label keys in
// sorted order, so the same labels in any argument order address the same
// series. No labels encodes as the bare name, which makes the encoding a
// fixed point: keyFor(keyFor(n, ls)) == keyFor(n, ls) — Merge relies on
// that to re-address series by their snapshot names.
func keyFor(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing event count. Updates are atomic, so
// concurrent experiments sharing a registry produce deterministic totals.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. A nil counter is a no-op.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. A nil counter is a no-op.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. A nil gauge is a no-op.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: counts[i] holds observations
// v <= bounds[i], with one overflow bucket beyond the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value. A nil histogram is a no-op.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil histogram).
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

func (h *Histogram) add(counts []uint64, sum float64, n uint64) {
	for i := range counts {
		if i < len(h.counts) {
			h.counts[i].Add(counts[i])
		}
	}
	h.n.Add(n)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry is a set of named metrics. Registration (Counter/Gauge/
// Histogram) is mutex-guarded and intended for construction time; the
// returned handles are lock-free on the hot path. A nil registry hands out
// nil handles, so disabled instrumentation costs one nil check per update.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating on first use) the counter for name+labels. A
// nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := keyFor(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name+labels. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := keyFor(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram for name+labels.
// The bucket bounds are fixed at first registration; later registrations
// return the existing histogram regardless of the bounds they pass. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := keyFor(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[key]
	if h == nil {
		h = newHistogram(bounds)
		r.histograms[key] = h
	}
	return h
}

// Merge folds another registry's state into r: counter values and histogram
// buckets add, gauges overwrite. Callers merging per-worker registries must
// merge in task order (the parallel pool returns results in task order), so
// the merged registry — gauges included — is identical for any worker
// count. Nil receivers and nil arguments are no-ops.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	snap := other.Snapshot()
	for _, p := range snap.Counters {
		r.Counter(p.Name).Add(p.Value)
	}
	for _, p := range snap.Gauges {
		r.Gauge(p.Name).Set(p.Value)
	}
	for _, p := range snap.Histograms {
		r.Histogram(p.Name, p.Bounds).add(p.Counts, p.Sum, p.Count)
	}
}

// CounterPoint is one counter in a snapshot. Name is the full encoded key
// (name{labels}).
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram in a snapshot. Counts has one entry per
// bound plus the overflow bucket.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, with every series sorted
// by name so rendering and comparison are deterministic.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state in sorted order. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: r.counters[name].Value()})
	}
	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: r.gauges[name].Value()})
	}
	names = names[:0]
	for name := range r.histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.histograms[name]
		p := HistogramPoint{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
			Count:  h.n.Load(),
		}
		for i := range h.counts {
			p.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, p)
	}
	return s
}

// Render formats the snapshot as sorted "kind name value" lines — the
// CLI's -metrics output.
func (s Snapshot) Render() string {
	var b strings.Builder
	for _, p := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", p.Name, p.Value)
	}
	for _, p := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %g\n", p.Name, p.Value)
	}
	for _, p := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%g buckets=", p.Name, p.Count, p.Sum)
		for i, c := range p.Counts {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(p.Bounds) {
				fmt.Fprintf(&b, "le%g:%d", p.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, "inf:%d", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
