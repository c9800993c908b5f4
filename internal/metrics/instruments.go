package metrics

// Lock-free instruments for long-running processes: monotonically increasing
// counters, settable gauges and fixed-bucket histograms. They are the value
// types behind the bcd daemon's /metrics endpoint — internal/server/promtext
// renders families of them in Prometheus text exposition format — but carry
// no exposition concerns themselves, so offline harnesses can reuse them.

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events; negative n is ignored (counters never decrease).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets. Bounds are the
// inclusive upper edges of the finite buckets; observations above the last
// bound land in the implicit +Inf bucket. Observe is safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewHistogram builds a histogram with the given finite bucket bounds, which
// are sorted and deduplicated. At least one finite bound is required so the
// histogram carries distribution information; NewHistogram panics otherwise
// (instrument construction is programmer error territory, like a bad pattern
// in regexp.MustCompile).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	w := 0
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b == bs[w-1] {
			continue
		}
		bs[w] = b
		w++
	}
	bs = bs[:w]
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// DurationBuckets are the default latency bounds in seconds, spanning
// sub-millisecond cache hits to multi-second recomputations.
func DurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive upper edge
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			break
		}
	}
	h.count.Add(1)
}

// Bounds returns the finite bucket upper edges.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot returns per-bucket counts (finite buckets in bound order, then the
// +Inf bucket), the observation sum and the observation count. The snapshot
// is not atomic across buckets, but each bucket value is individually
// consistent — the standard Prometheus collection contract.
func (h *Histogram) Snapshot() (buckets []uint64, sum float64, count uint64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, math.Float64frombits(h.sum.Load()), h.count.Load()
}
