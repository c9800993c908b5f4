// Package promtext renders families of internal/metrics instruments in the
// Prometheus text exposition format (version 0.0.4) using only the standard
// library. It is the serving layer's answer to client_golang: bcd feeds its
// request counters, latency histograms and incremental-update counters
// through a Registry here and exposes the result on GET /metrics.
//
// Supported shapes: counter, gauge and histogram families, each with a fixed
// label-name schema and any number of label-value series. Output is
// deterministic (families in registration order, series sorted) so tests and
// scrapers see stable text.
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Registry holds metric families and renders them.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-values key -> *metrics.{Counter,Gauge,Histogram}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("promtext: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("promtext: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic(fmt.Sprintf("promtext: duplicate metric %q", name))
	}
	r.seen[name] = true
	f := &family{name: name, help: help, typ: typ, labels: labels,
		buckets: buckets, series: map[string]any{}}
	r.fams = append(r.fams, f)
	return f
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// NewCounter registers a counter family with the given label schema.
func (r *Registry) NewCounter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. The number of values must match the registered label names.
func (cv *CounterVec) With(values ...string) *metrics.Counter {
	return cv.f.get(values, func() any { return &metrics.Counter{} }).(*metrics.Counter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// NewGauge registers a gauge family with the given label schema.
func (r *Registry) NewGauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", labels, nil)}
}

// With returns the gauge for the given label values, creating it on first use.
func (gv *GaugeVec) With(values ...string) *metrics.Gauge {
	return gv.f.get(values, func() any { return &metrics.Gauge{} }).(*metrics.Gauge)
}

// HistogramVec is a histogram family keyed by label values; every series
// shares the family's bucket bounds.
type HistogramVec struct{ f *family }

// NewHistogram registers a histogram family with the given finite bucket
// bounds and label schema.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	probe := metrics.NewHistogram(buckets...) // validates and normalizes
	return &HistogramVec{r.register(name, help, "histogram", labels, probe.Bounds())}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *metrics.Histogram {
	return hv.f.get(values, func() any {
		return metrics.NewHistogram(hv.f.buckets...)
	}).(*metrics.Histogram)
}

func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("promtext: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
	}
	return s
}

// WriteTo renders every family. Families with no series are emitted as bare
// HELP/TYPE headers so scrapers learn the schema before first use.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var total int64
	for _, f := range fams {
		n, err := f.writeTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (f *family) writeTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	for i, k := range keys {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, "\x00")
		}
		switch m := series[i].(type) {
		case *metrics.Counter:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelSet(f.labels, values, "", ""),
				strconv.FormatUint(m.Value(), 10))
		case *metrics.Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelSet(f.labels, values, "", ""),
				strconv.FormatInt(m.Value(), 10))
		case *metrics.Histogram:
			buckets, sum, count := m.Snapshot()
			var cum uint64
			for bi, bound := range f.buckets {
				cum += buckets[bi]
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelSet(f.labels, values, "le", le), cum)
			}
			cum += buckets[len(f.buckets)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
				labelSet(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelSet(f.labels, values, "", ""),
				strconv.FormatFloat(sum, 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelSet(f.labels, values, "", ""), count)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// labelSet renders {k="v",...}; extraK/extraV append a synthetic label (le).
// An empty set renders as nothing.
func labelSet(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes backslash, quote and newline exactly as the text format
		// requires.
		fmt.Fprintf(&b, "%s=%q", name, v)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
