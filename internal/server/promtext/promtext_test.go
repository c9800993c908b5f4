package promtext

import (
	"regexp"
	"strings"
	"testing"
)

// metricLine matches one sample of the text exposition format.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkFormat asserts every line is a comment or a well-formed sample.
func checkFormat(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("reqs_total", "Requests.", "route", "code")
	g := r.NewGauge("graphs_loaded", "Loaded graphs.")
	c.With("/bc", "200").Inc()
	c.With("/bc", "200").Add(2)
	c.With("/bc", "404").Inc()
	g.With().Set(7)
	g.With().Set(5) // the last Set is the level

	text := render(t, r)
	checkFormat(t, text)
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{route="/bc",code="200"} 3`,
		`reqs_total{route="/bc",code="404"} 1`,
		"# TYPE graphs_loaded gauge",
		"graphs_loaded 5",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10}, "route")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.With("/bc").Observe(v)
	}
	text := render(t, r)
	checkFormat(t, text)
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{route="/bc",le="0.1"} 1`,
		`latency_seconds_bucket{route="/bc",le="1"} 3`,
		`latency_seconds_bucket{route="/bc",le="10"} 4`,
		`latency_seconds_bucket{route="/bc",le="+Inf"} 5`,
		`latency_seconds_sum{route="/bc"} 56.05`,
		`latency_seconds_count{route="/bc"} 5`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("a_total", "A.", "x")
	c.With("zebra").Inc()
	c.With("apple").Inc()
	text := render(t, r)
	if strings.Index(text, `x="apple"`) > strings.Index(text, `x="zebra"`) {
		t.Fatalf("series not sorted:\n%s", text)
	}
	if text != render(t, r) {
		t.Fatal("rendering is not deterministic")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "Escapes.", "v")
	c.With("a\"b\\c\nd").Inc()
	text := render(t, r)
	if !strings.Contains(text, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", text)
	}
}

func TestEmptyFamilyEmitsHeaders(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("unused_total", "Never incremented.")
	text := render(t, r)
	checkFormat(t, text)
	if !strings.Contains(text, "# TYPE unused_total counter") {
		t.Fatalf("missing schema header:\n%s", text)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "D.")
	for name, fn := range map[string]func(){
		"duplicate name":    func() { r.NewCounter("dup_total", "D.") },
		"bad metric name":   func() { r.NewCounter("0bad", "B.") },
		"bad label name":    func() { r.NewCounter("ok_total", "B.", "0bad") },
		"label count":       func() { r.NewCounter("ok2_total", "B.", "a").With("x", "y") },
		"histogram buckets": func() { r.NewHistogram("h_seconds", "H.", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
