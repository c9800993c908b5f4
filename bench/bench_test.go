package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the runner
// re-executes os.Executable() with `-child SPEC`, which here is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables pins the committed BENCHMARK.json to the tables
// the program prints from, and the tables to the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(want.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	ga, _ := json.Marshal(a)
	gb, _ := json.Marshal(b)
	if !bytes.Equal(ga, gb) {
		t.Errorf("BENCHMARK.json is stale; regenerate with `go run ./bench -manifest > BENCHMARK.json`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", runSeconds)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %s", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s [s, lower]")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
	for _, k := range exactRepeat {
		if !seen[k] {
			t.Errorf("exact-repeat count %q is not a per-layer metric", k)
		}
	}
}

func toyRunner(t *testing.T) *runner {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &runner{exe: exe, nproc: runtime.NumCPU(), seed: 7, seconds: 1, trace: 2, toy: true}
}

// TestWorkloadsToy runs all four workloads end to end at toy size — children,
// oracles, probes, serving phases, recovery — and checks that every metric
// the manifest names comes out, finite and unit-tagged, with nothing failing.
func TestWorkloadsToy(t *testing.T) {
	r := toyRunner(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var stdout bytes.Buffer
	doc, err := r.runAll(names, t.TempDir(), &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Correct {
		t.Errorf("toy run is not correct")
	}
	for _, res := range doc.Workloads {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.Name, res.Failed, res.Attempted, res.Failures)
		}
		check := func(defs []metricDef, got map[string]metric, positive bool) {
			for _, def := range defs {
				m, ok := got[def.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", res.Name, def.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", res.Name, def.Name, m.Value)
				case m.Unit != def.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", res.Name, def.Name, m.Unit, def.Unit)
				case positive && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Name, def.Name, m.Value)
				}
			}
			if len(got) != len(defs) {
				t.Errorf("%s: %d metrics reported, manifest names %d", res.Name, len(got), len(defs))
			}
		}
		check(endToEnd, res.EndToEnd, true)
		check(perLayer, res.PerLayer, false)
		// The layers a workload exists to exercise did work there.
		busy := []string{"graphio.load_s", "decompose.total_s", "core.sweep_s", "core.traversed_arcs", "msbfs.sweep_s", "brandes.serial_s", "trace.spans"}
		if res.Name == "serve" {
			busy = append(busy, "server.cold_first_answer_s", "server.mutate_p50_ms", "server.read_p50_us",
				"server.recover_s", "server.wal_appends", "server.rebuild_frac", "core.inc_new_s", "core.inc_local_p50_ms")
		}
		for _, k := range busy {
			if !(res.PerLayer[k].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", res.Name, k, res.PerLayer[k].Value)
			}
		}
	}

	// The last line of standard output is the driver's summary object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var summary struct {
		Correct   *bool                     `json:"correct"`
		Attempted *int                      `json:"attempted"`
		Failed    *int                      `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if summary.Correct == nil || !*summary.Correct || summary.Attempted == nil || *summary.Attempted < 1 || summary.Failed == nil {
		t.Errorf("summary line %s", lines[len(lines)-1])
	}
	if want := len(workloads) * (len(endToEnd) + len(perLayer)); len(summary.Metrics) != want {
		t.Errorf("summary carries %d metrics, want %d", len(summary.Metrics), want)
	}

	checkSpans(t, r.spans)
}

// checkSpans asserts the traced runs' spans nest — every child inside its
// parent, one root per run named "run" or "probes" — and that per-layer self
// times add up to the root spans within 2 %.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byRun := map[string][]span{}
	for _, s := range spans {
		byRun[s.Run] = append(byRun[s.Run], s)
	}
	if len(byRun) < len(workloads) {
		t.Fatalf("spans from %d runs, want at least one traced run per workload", len(byRun))
	}
	for run, ss := range byRun {
		var roots time.Duration
		names := map[string]bool{}
		for _, s := range ss {
			names[s.Name] = true
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %s ends before it starts", run, s.Name)
			}
			if s.Parent < 0 {
				roots += time.Duration(s.EndNs - s.StartNs)
				continue
			}
			// decompose.Timings are measured inside Decompose, so the
			// synthesized phase spans may overrun the outside measurement by
			// clock-read noise; allow a microsecond-scale slop.
			p := ss[s.Parent]
			if slop := int64(50 * time.Microsecond); s.StartNs < p.StartNs || s.EndNs > p.EndNs+slop {
				t.Errorf("%s: span %s [%d,%d] is not inside its parent %s [%d,%d]", run, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
		var self time.Duration
		for _, d := range selfTimes(ss) {
			self += d
		}
		if diff := math.Abs(float64(self-roots)) / float64(roots); diff > 0.02 {
			t.Errorf("%s: self times sum to %v, root spans to %v", run, self, roots)
		}
		if strings.HasPrefix(run, "batch") {
			for _, want := range []string{"run", "graphio.load", "decompose.decompose", "decompose.partition", "decompose.alphabeta", "core.compute_decomposed"} {
				if !names[want] {
					t.Errorf("%s: no %s span", run, want)
				}
			}
		}
	}
}

// TestCorruptAnswerFails is the self-test behind -corrupt: one perturbed score
// in one child's answer must fail verification and the run.
func TestCorruptAnswerFails(t *testing.T) {
	for _, name := range []string{"road", "scale", "serve"} {
		r := toyRunner(t)
		r.trace, r.corrupt = 0, true
		doc, err := r.runAll([]string{name}, t.TempDir(), io.Discard)
		if err == nil && doc.Correct {
			t.Errorf("%s: a corrupted answer passed verification", name)
		}
	}
}

func TestVerificationHelpers(t *testing.T) {
	want := []float64{0, 1, 1e6, 3.5}
	got := append([]float64(nil), want...)
	if e := maxRelErr(got, want); e != 0 || !bitIdentical(got, want) {
		t.Errorf("identical vectors: err %v", e)
	}
	got[2] += 1e-2 // 1e-8 relative: beyond relTol
	if e := maxRelErr(got, want); !(e > relTol) || bitIdentical(got, want) {
		t.Errorf("perturbed vector: err %v", e)
	}
	got[2] = want[2]
	got[0] = 1e-12 // a zero score is compared absolutely
	if e := maxRelErr(got, want); !(e <= relTol) {
		t.Errorf("tiny absolute error on a zero score: err %v", e)
	}
	got[0] = math.NaN()
	if e := maxRelErr(got, want); !math.IsInf(e, 1) {
		t.Errorf("NaN score: err %v", e)
	}
	if e := maxRelErr(want[:3], want); !math.IsInf(e, 1) {
		t.Errorf("short vector: err %v", e)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "load", StartNs: 0, EndNs: 10, Parent: 0},
		{Name: "decompose", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "partition", StartNs: 10, EndNs: 30, Parent: 2},
		{Name: "alphabeta", StartNs: 30, EndNs: 38, Parent: 2},
		// Two concurrent children overlapping on [50,60]: covered once.
		{Name: "sweep", StartNs: 40, EndNs: 60, Parent: 0},
		{Name: "sweep", StartNs: 50, EndNs: 90, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"run": 10, "load": 10, "decompose": 2, "partition": 20, "alphabeta": 8, "sweep": 60}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestCompareDocuments(t *testing.T) {
	mk := func(wall, arcs float64) *document {
		return &document{Seed: 1, Workloads: []*wlResult{{
			Name:     "road",
			EndToEnd: map[string]metric{"wall_s": {Value: wall, Unit: "s"}},
			PerLayer: map[string]metric{"core.traversed_arcs": {Value: arcs, Unit: "count"}},
		}}}
	}
	bound := 0.0
	for _, def := range endToEnd {
		if def.Name == "wall_s" {
			bound = def.Bound
		}
	}
	if !compareDocuments(mk(1.00, 500), mk(1+bound/2, 500), io.Discard) {
		t.Error("half the bound apart must agree")
	}
	if compareDocuments(mk(1.00, 500), mk(1+2*bound, 500), io.Discard) {
		t.Error("twice the bound apart must disagree")
	}
	if compareDocuments(mk(1.00, 500), mk(1.00, 501), io.Discard) {
		t.Error("an exact-repeat count that moved must disagree")
	}
	other := mk(1.00, 501)
	other.Seed = 2
	if !compareDocuments(mk(1.00, 500), other, io.Discard) {
		t.Error("counts of different seeds are not comparable and must not disagree")
	}
}

// TestScriptIsSeeded: the edit script is a function of the graph and the seed.
func TestScriptIsSeeded(t *testing.T) {
	w, _ := workloadByName("serve")
	r := toyRunner(t)
	r.work = t.TempDir()
	stage := func(seed int64) *staged {
		r.seed = seed
		st, err := r.stage(w, w.Params(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b, c := stage(3), stage(3), stage(4)
	if len(a.script) == 0 || len(a.script)%blockLen != 0 {
		t.Fatalf("script of %d ops", len(a.script))
	}
	same := func(x, y []edgeOp) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a.script, b.script) {
		t.Error("same seed, different scripts")
	}
	if same(a.script, c.script) {
		t.Error("different seeds, same script")
	}
	// Replaying a whole number of blocks nets two added edges per block.
	g := applyScript(a.g, a.script[:3*blockLen])
	if got, want := g.NumEdges(), a.g.NumEdges()+6; got != want {
		t.Errorf("after three blocks: %d edges, want %d", got, want)
	}
}
