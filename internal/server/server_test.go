package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// lifecycleEdges is the lifecycle test graph: two 4-cycles sharing the
// articulation point 3, a leaf hanging off each side, a separate 9-10
// component, and the isolated vertex 11. Every shortest-path count σ in this
// graph (and in every mutation the tests apply) is a power of two, so all BC
// dependencies are dyadic rationals: floating-point arithmetic on them is
// EXACT, which is what lets the tests demand bit-identical scores between
// the incrementally maintained state and a fresh core.Compute, regardless of
// summation order or parallelism.
var lifecycleEdges = [][2]int32{
	{0, 1}, {1, 2}, {2, 3}, {3, 0}, // cycle A
	{3, 4}, {4, 5}, {5, 6}, {6, 3}, // cycle B, AP 3
	{0, 7}, {5, 8}, // leaves
	{9, 10}, // separate component
}

const lifecycleN = 12
const lifecycleThreshold = 2 // keep leaf blocks as their own sub-graphs

func lifecycleGraph(extra [][2]int32, removed [][2]int32) *graph.Graph {
	edges := make([]graph.Edge, 0, len(lifecycleEdges)+len(extra))
	skip := func(e [2]int32) bool {
		for _, d := range removed {
			if (d == e) || (d[0] == e[1] && d[1] == e[0]) {
				return true
			}
		}
		return false
	}
	for _, e := range lifecycleEdges {
		if !skip(e) {
			edges = append(edges, graph.Edge{From: e[0], To: e[1]})
		}
	}
	for _, e := range extra {
		edges = append(edges, graph.Edge{From: e[0], To: e[1]})
	}
	return graph.NewFromEdges(lifecycleN, edges, false)
}

func newTestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(Config{Workers: 2})
	ts := httptest.NewServer(New(reg, nil))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, reg
}

// do issues a request and decodes the JSON response into out (if non-nil),
// returning the status code.
func do(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// loadAndWait loads spec and polls the status endpoint until ready.
func loadAndWait(t *testing.T, base string, spec LoadSpec) {
	t.Helper()
	if code := do(t, "POST", base+"/v1/graphs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("load returned %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info EntryInfo
		do(t, "GET", base+"/v1/graphs/"+spec.Name, nil, &info)
		switch info.State {
		case StateReady:
			return
		case StateFailed:
			t.Fatalf("load of %q failed: %s", spec.Name, info.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("graph %q not ready after 30s", spec.Name)
}

// fetchScores reads the full score array.
func fetchScores(t *testing.T, base, name string) []float64 {
	t.Helper()
	var resp bcResponse
	if code := do(t, "GET", base+"/v1/graphs/"+name+"/bc?top=0", nil, &resp); code != http.StatusOK {
		t.Fatalf("bc?top=0 returned %d", code)
	}
	return resp.Scores
}

// assertBitIdentical compares served scores against a fresh core.Compute of
// the expected graph, bit for bit.
func assertBitIdentical(t *testing.T, label string, got []float64, g *graph.Graph) {
	t.Helper()
	want, err := core.Compute(g, core.Options{Threshold: lifecycleThreshold})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, label+" vs a fresh compute", got, want)
}

// assertSameBits holds two score vectors to each other bit for bit.
func assertSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: bc[%d] = %v (bits %x), want %v (bits %x)",
				label, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// TestLifecycle drives the full serving lifecycle: load → query → mutate
// (local and rebuild paths) → query, checking after every step that the
// served scores are bit-identical to a fresh computation on the mutated
// graph.
func TestLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "life", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})

	assertBitIdentical(t, "after load", fetchScores(t, base, "life"), lifecycleGraph(nil, nil))

	// Step 1: a chord inside cycle A — intra-sub-graph, must stay local.
	var mut MutationResult
	if code := do(t, "POST", base+"/v1/graphs/life/edges",
		edgeRequest{From: 1, To: 3}, &mut); code != http.StatusOK {
		t.Fatalf("insert returned %d", code)
	}
	if mut.Result != "local" {
		t.Fatalf("intra-block insert result = %q, want local", mut.Result)
	}
	assertBitIdentical(t, "after local insert",
		fetchScores(t, base, "life"), lifecycleGraph([][2]int32{{1, 3}}, nil))

	// Step 2: connect the separate 9-10 component — cross-sub-graph, must
	// force a rebuild.
	if code := do(t, "POST", base+"/v1/graphs/life/edges",
		edgeRequest{From: 9, To: 4}, &mut); code != http.StatusOK {
		t.Fatalf("insert returned %d", code)
	}
	if mut.Result != "rebuild" {
		t.Fatalf("cross-component insert result = %q, want rebuild", mut.Result)
	}
	assertBitIdentical(t, "after rebuild insert",
		fetchScores(t, base, "life"), lifecycleGraph([][2]int32{{1, 3}, {9, 4}}, nil))

	// Step 3: remove the 0-7 leaf edge — a block-splitting removal that must
	// stay local while other sub-graphs' α/β adjust.
	if code := do(t, "DELETE", base+"/v1/graphs/life/edges?from=0&to=7", nil, &mut); code != http.StatusOK {
		t.Fatalf("delete returned %d", code)
	}
	if mut.Result != "local" {
		t.Fatalf("leaf removal result = %q, want local", mut.Result)
	}
	assertBitIdentical(t, "after leaf removal",
		fetchScores(t, base, "life"),
		lifecycleGraph([][2]int32{{1, 3}, {9, 4}}, [][2]int32{{0, 7}}))

	// The info endpoint reports how mutations were absorbed.
	var info EntryInfo
	do(t, "GET", base+"/v1/graphs/life", nil, &info)
	if info.LocalUpdates != 2 || info.FullRebuilds != 1 {
		t.Fatalf("info = %+v, want 2 local / 1 rebuild", info)
	}

	// Per-vertex view: 3 is the articulation point joining the cycles; after
	// the mutations it still brokers cycle B (and now the 9-10 tail).
	var v3 VertexInfo
	if code := do(t, "GET", base+"/v1/graphs/life/vertices/3", nil, &v3); code != http.StatusOK {
		t.Fatalf("vertex returned %d", code)
	}
	if !v3.IsArticulation || v3.Rank != 1 {
		t.Fatalf("vertex 3 = %+v, want articulation at rank 1", v3)
	}
	if v3.InDegree != nil {
		t.Fatalf("undirected graph reported in-degree %d", *v3.InDegree)
	}

	// Top-K agrees with the full array.
	var top bcResponse
	do(t, "GET", base+"/v1/graphs/life/bc?top=3", nil, &top)
	scores := fetchScores(t, base, "life")
	if len(top.Top) != 3 || top.Top[0].Vertex != 3 ||
		top.Top[0].Score != scores[3] {
		t.Fatalf("top-3 = %+v, inconsistent with full scores", top.Top)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "st", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})
	var census struct {
		Schema        int    `json:"schema"`
		Graph         string `json:"graph"`
		Verts         int    `json:"verts"`
		Decomposition struct {
			Threshold int `json:"threshold"`
			Subgraphs int `json:"subgraphs"`
			Roots     int `json:"roots"`
			Largest   []struct {
				Swept      int     `json:"swept"`
				MaxDegree  int     `json:"max_degree"`
				MeanDegree float64 `json:"mean_degree"`
				Relabelled bool    `json:"relabelled"`
				Hybrid     *bool   `json:"hybrid"`
				Lanes      *bool   `json:"lanes"`
			} `json:"largest"`
		} `json:"decomposition"`
		Redundancy struct {
			Method string  `json:"method"`
			Total  float64 `json:"total"`
		} `json:"redundancy"`
	}
	if code := do(t, "GET", base+"/v1/graphs/st/stats", nil, &census); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if census.Schema != 1 || census.Graph != "st" || census.Verts != lifecycleN {
		t.Fatalf("census header = %+v", census)
	}
	// Cycle A, cycle B (which absorbs the 5-8 leaf block — smaller than the
	// threshold, it merges into its father), the 0-7 leaf, and the 9-10
	// block: four sub-graphs (isolated 11 belongs to none).
	if census.Decomposition.Subgraphs != 4 {
		t.Fatalf("subgraphs = %d, want 4", census.Decomposition.Subgraphs)
	}
	if census.Decomposition.Threshold != lifecycleThreshold {
		t.Fatalf("threshold = %d, want %d", census.Decomposition.Threshold, lifecycleThreshold)
	}
	if census.Redundancy.Method != "exact" {
		t.Fatalf("redundancy method = %q, want exact for a tiny graph", census.Redundancy.Method)
	}
	// The layout and what decided it: cycle B's four vertices are all swept,
	// each of degree 2, so it has no hub and keeps input order.
	if top := census.Decomposition.Largest[0]; top.Swept != 4 || top.MaxDegree != 2 || top.MeanDegree != 2 || top.Relabelled {
		t.Fatalf("largest sub-graph = %+v, want 4 swept vertices of degree 2 in input order", top)
	}
	// How it is swept: cycle B is far too small for a direction-optimizing
	// sweep or the lane kernel, so "hybrid" and "lanes" are left out; a
	// circulant of 300 vertices and degree 6 is past both of the direction
	// rule's bounds and inside the lane kernel's band, and says so.
	if top := census.Decomposition.Largest[0]; top.Hybrid != nil || top.Lanes != nil {
		t.Fatalf("largest sub-graph = %+v, want it swept top-down by the scalar kernel", top)
	}
	var dense [][2]int32
	for v := int32(0); v < 300; v++ {
		for k := int32(1); k <= 3; k++ {
			dense = append(dense, [2]int32{v, (v + k) % 300})
		}
	}
	loadAndWait(t, base, LoadSpec{Name: "dense", N: 300, Edges: dense})
	if code := do(t, "GET", base+"/v1/graphs/dense/stats", nil, &census); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if top := census.Decomposition.Largest[0]; top.Swept != 300 || top.MeanDegree != 6 || top.Hybrid == nil || !*top.Hybrid {
		t.Fatalf("circulant's sub-graph = %+v, want 300 swept vertices of degree 6, swept hybrid", top)
	} else if top.Lanes == nil || !*top.Lanes {
		t.Fatalf("circulant's sub-graph = %+v, want it re-swept by the lane kernel", top)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL

	check := func(label string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: status %d, want %d", label, got, want)
		}
	}
	check("unknown graph info", do(t, "GET", base+"/v1/graphs/nope", nil, nil), 404)
	check("unknown graph bc", do(t, "GET", base+"/v1/graphs/nope/bc", nil, nil), 404)
	check("unknown graph mutate", do(t, "POST", base+"/v1/graphs/nope/edges",
		edgeRequest{From: 0, To: 1}, nil), 404)
	check("unknown graph unload", do(t, "DELETE", base+"/v1/graphs/nope", nil, nil), 404)
	check("bad load body", do(t, "POST", base+"/v1/graphs",
		map[string]any{"name": "x", "bogus": true}, nil), 400)
	// The load field that chose a sweep kernel is gone, and says so: an old
	// client's spec is a 400, not a load that silently ignores the request.
	check("removed engine field", do(t, "POST", base+"/v1/graphs",
		map[string]any{"name": "x", "n": 3, "edges": [][2]int32{{0, 1}}, "engine": "msbfs"}, nil), 400)
	check("bad name", do(t, "POST", base+"/v1/graphs",
		LoadSpec{Name: "bad name!", Dataset: "email-enron"}, nil), 400)

	loadAndWait(t, base, LoadSpec{Name: "g", N: lifecycleN, Edges: lifecycleEdges})
	check("duplicate name", do(t, "POST", base+"/v1/graphs",
		LoadSpec{Name: "g", N: 3, Edges: [][2]int32{{0, 1}}}, nil), 409)
	check("bad top", do(t, "GET", base+"/v1/graphs/g/bc?top=-1", nil, nil), 400)
	check("bad vertex id", do(t, "GET", base+"/v1/graphs/g/vertices/xyz", nil, nil), 400)
	check("vertex out of range", do(t, "GET", base+"/v1/graphs/g/vertices/99", nil, nil), 404)
	check("self-loop", do(t, "POST", base+"/v1/graphs/g/edges",
		edgeRequest{From: 2, To: 2}, nil), 400)
	check("duplicate edge", do(t, "POST", base+"/v1/graphs/g/edges",
		edgeRequest{From: 0, To: 1}, nil), 400)
	check("absent edge removal", do(t, "DELETE", base+"/v1/graphs/g/edges?from=0&to=6", nil, nil), 400)
	check("bad edge args", do(t, "DELETE", base+"/v1/graphs/g/edges?from=a&to=b", nil, nil), 400)

	// Healthz is plain text.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestUnencodableResponseIs500: a response JSON cannot carry — a NaN score —
// reaches the client as a 500 with an error body, and is logged, instead of
// the 200 with an empty body that writing the status before encoding gave.
func TestUnencodableResponseIs500(t *testing.T) {
	reg := NewRegistry(Config{Workers: 1})
	defer reg.Close()
	var logged bytes.Buffer
	s := New(reg, log.New(&logged, "", 0))
	s.route("GET /nan", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]float64{"score": math.NaN()})
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	var body errorBody
	if code := do(t, "GET", ts.URL+"/nan", nil, &body); code != http.StatusInternalServerError || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("status %d, body %+v; want 500 naming the NaN", code, body)
	}
	if !strings.Contains(logged.String(), "encode response") || !strings.Contains(logged.String(), "GET /nan -> 500") {
		t.Fatalf("log %q: want the encode failure and the 500", logged.String())
	}
}

// TestHostileInlineNIs400: the request that used to panic the build worker
// and kill the daemon is a 400, and the daemon goes on loading and serving.
func TestHostileInlineNIs400(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	resp, err := http.Post(base+"/v1/graphs", "application/json",
		strings.NewReader(`{"name":"x","n":4611686018427387904,"edges":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "n=4611686018427387904") {
		t.Fatalf("hostile n: %d %q, want 400 naming n", resp.StatusCode, body.Error)
	}
	if code := do(t, "GET", base+"/v1/graphs/x", nil, nil); code != http.StatusNotFound {
		t.Fatalf("rejected graph x: status %d, want 404", code)
	}
	loadAndWait(t, base, LoadSpec{Name: "g", N: lifecycleN, Edges: lifecycleEdges})
	assertBitIdentical(t, "after the hostile load", fetchScores(t, base, "g"), lifecycleGraph(nil, nil))
}

// TestLoadErrorKeepsFileContentsInTheLog: a path load that fails to parse
// tells the client the error class and the line, never the parser's text,
// which quotes the file. The full text goes to the daemon's log. A missing
// file is still named as such.
func TestLoadErrorKeepsFileContentsInTheLog(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	ts, reg := newTestServer(t)
	base := ts.URL
	secret := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(secret, []byte("root-secret-line here\n0 1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	failed := func(name, path string) EntryInfo {
		t.Helper()
		if code := do(t, "POST", base+"/v1/graphs", LoadSpec{Name: name, Path: path}, nil); code != http.StatusAccepted {
			t.Fatalf("load %s: status %d, want 202", path, code)
		}
		if info := waitState(t, reg.Get(name)); info.State != StateFailed {
			t.Fatalf("load %s: state %s, want failed", path, info.State)
		}
		var info EntryInfo
		do(t, "GET", base+"/v1/graphs/"+name, nil, &info)
		return info
	}

	info := failed("s", secret)
	var body errorBody
	code := do(t, "GET", base+"/v1/graphs/s/bc", nil, &body)
	var list struct{ Graphs []EntryInfo }
	do(t, "GET", base+"/v1/graphs", nil, &list)
	for label, text := range map[string]string{"info": info.Error, "bc": body.Error, "list": list.Graphs[0].Error} {
		if strings.Contains(text, "root-secret") || !strings.Contains(text, "parse error at line 1") {
			t.Errorf("%s told the client %q; want the class and line, not the file's text", label, text)
		}
	}
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bc on the failed graph: status %d, want 422", code)
	}
	// A one-field line is quoted by another parser error.
	host := filepath.Join(t.TempDir(), "hostname")
	if err := os.WriteFile(host, []byte("0 1\nvm\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if text := failed("h", host).Error; strings.Contains(text, "vm") || !strings.Contains(text, "parse error at line 2") {
		t.Errorf("a one-field line told the client %q", text)
	}
	if !strings.Contains(logged.String(), "root-secret-line") {
		t.Errorf("the log %q lacks the parser's full text", logged.String())
	}

	missing := failed("gone", filepath.Join(t.TempDir(), "missing.txt"))
	if !strings.Contains(missing.Error, "no such file") {
		t.Errorf("a missing file told the client %q", missing.Error)
	}
}

// promSample matches one exposition sample line. Label values are matched as
// quoted strings (they may legally contain "{" and "}", e.g. route patterns).
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})? (-?[0-9][0-9.e+-]*|\+Inf|NaN)$`)

// TestMetricsEndpoint drives traffic and then verifies /metrics parses as
// Prometheus text format and carries the promised series.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "m", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})
	do(t, "GET", base+"/v1/graphs/m/bc?top=3", nil, nil)
	do(t, "GET", base+"/v1/graphs/nope", nil, nil) // a 404 to label a non-200 code
	var mut MutationResult
	do(t, "POST", base+"/v1/graphs/m/edges", edgeRequest{From: 1, To: 3}, &mut) // local
	do(t, "POST", base+"/v1/graphs/m/edges", edgeRequest{From: 9, To: 4}, &mut) // rebuild

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// 1. Every line parses; histogram buckets are cumulative and agree with
	// their _count.
	types := map[string]string{}
	values := map[string]float64{}
	var order []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = v
		order = append(order, m[1]+m[2])
	}
	if len(order) == 0 {
		t.Fatal("no samples")
	}
	for name, typ := range types {
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			t.Fatalf("metric %s has unknown type %q", name, typ)
		}
	}
	// Cumulativeness: within each histogram series, bucket values must be
	// non-decreasing in declaration order and end equal to _count.
	var prev float64
	var prevSeries string
	for _, key := range order {
		if !strings.Contains(key, "_bucket{") {
			continue
		}
		series := key[:strings.Index(key, "le=\"")]
		if series != prevSeries {
			prev, prevSeries = 0, series
		}
		if values[key] < prev {
			t.Fatalf("bucket %s decreased (%v < %v)", key, values[key], prev)
		}
		prev = values[key]
	}

	// 2. The promised series exist with sane values.
	bcRoute := `route="GET /v1/graphs/{name}/bc"`
	if v := values[`bcd_requests_total{`+bcRoute+`,method="GET",code="200"}`]; v < 1 {
		t.Fatalf("bc request counter = %v, want >= 1\n%s", v, text)
	}
	if v := values[`bcd_requests_total{route="GET /v1/graphs/{name}",method="GET",code="404"}`]; v < 1 {
		t.Fatalf("404 request counter = %v, want >= 1\n%s", v, text)
	}
	if v := values[`bcd_request_duration_seconds_count{`+bcRoute+`}`]; v < 1 {
		t.Fatalf("bc latency count = %v, want >= 1\n%s", v, text)
	}
	if v := values[`bcd_request_duration_seconds_bucket{`+bcRoute+`,le="+Inf"}`]; v != values[`bcd_request_duration_seconds_count{`+bcRoute+`}`] {
		t.Fatalf("+Inf bucket != count\n%s", text)
	}
	if v := values[`bcd_incremental_updates_total{result="local"}`]; v != 1 {
		t.Fatalf("local counter = %v, want 1\n%s", v, text)
	}
	if v := values[`bcd_incremental_updates_total{result="rebuild"}`]; v != 1 {
		t.Fatalf("rebuild counter = %v, want 1\n%s", v, text)
	}
	if v := values[`bcd_graphs_loaded`]; v != 1 {
		t.Fatalf("graphs loaded = %v, want 1\n%s", v, text)
	}
	if v := values[`bcd_load_jobs_total{status="ok"}`]; v != 1 {
		t.Fatalf("load ok counter = %v, want 1\n%s", v, text)
	}
	// The arena gauges say what the load and the two edits left behind: at
	// least one workspace, with per-vertex arrays and a tape.
	if size, base, tape := values[`bcd_ws_pool_size`], values[`bcd_ws_bytes{layer="base"}`], values[`bcd_ws_bytes{layer="tape"}`]; size < 1 || base <= 0 || tape <= 0 {
		t.Fatalf("arena gauges: %v workspaces, %v B base, %v B tape\n%s", size, base, tape, text)
	}
	if _, ok := values[`bcd_ws_bytes{layer="lanes"}`]; !ok {
		t.Fatalf("no lanes series\n%s", text)
	}
}

// scrapeMetrics reads /metrics into a map from series (name plus label set)
// to value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = v
	}
	return values
}

// TestMetricsCountEveryRegistryEvent scripts one of each registry event —
// both overloads (workers held through beforeBuild and beforeMutate), a
// coalesced mutation batch, a top-K cache miss and hit, WAL appends and
// compactions, a queued load canceled by Close, and a Recover — and holds
// each /metrics counter to the exact count the script implies.
func TestMetricsCountEveryRegistryEvent(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 1, DataDir: dir, SnapshotEvery: 2, MutationQueueDepth: 1}
	reg := NewRegistry(cfg)
	var holdBuild, holdMutate atomic.Bool
	var buildOnce, mutOnce sync.Once
	buildGate, buildHeld := make(chan struct{}), make(chan struct{})
	mutGate, mutHeld := make(chan struct{}), make(chan struct{})
	reg.beforeBuild = func() {
		if holdBuild.Load() {
			buildOnce.Do(func() { close(buildHeld); <-buildGate })
		}
	}
	reg.beforeMutate = func() {
		if holdMutate.Load() {
			mutOnce.Do(func() { close(mutHeld); <-mutGate })
		}
	}
	ts := httptest.NewServer(New(reg, nil))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "m", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})

	// Top-K: one miss, then a hit on the same epoch.
	do(t, "GET", base+"/v1/graphs/m/bc?top=3", nil, nil)
	do(t, "GET", base+"/v1/graphs/m/bc?top=3", nil, nil)

	// Two single-op batches: two appends, and the second reaches
	// SnapshotEvery and compacts.
	for _, edge := range []edgeRequest{{From: 1, To: 3}, {From: 9, To: 4}} {
		if code := do(t, "POST", base+"/v1/graphs/m/edges", edge, nil); code != http.StatusOK {
			t.Fatalf("mutation %v returned %d", edge, code)
		}
	}

	// Mutation overload: the first op holds the worker, the second fills the
	// depth-1 queue, the third is shed. The held op and the queued one then
	// apply as one batch of two (one append, one compaction).
	holdMutate.Store(true)
	codes := make(chan int, 2)
	send := func(method, query string) {
		req, _ := http.NewRequest(method, base+"/v1/graphs/m/edges?"+query, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			codes <- -1
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go send("POST", "from=0&to=2")
	<-mutHeld
	go send("DELETE", "from=1&to=3")
	e := reg.Get("m")
	for deadline := time.Now().Add(10 * time.Second); e.pending.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second mutation never queued")
		}
	}
	if code := do(t, "POST", base+"/v1/graphs/m/edges?from=9&to=3", nil, nil); code != http.StatusTooManyRequests {
		t.Fatalf("mutation into a full queue returned %d, want 429", code)
	}
	close(mutGate)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held mutation returned %d", code)
		}
	}

	// Build overload: b1 holds the worker, b2 fills the depth-1 queue, b3 is
	// shed. Close then cancels both b1 and the still-queued b2.
	holdBuild.Store(true)
	if _, err := reg.Load(triangleSpec("b1")); err != nil {
		t.Fatal(err)
	}
	<-buildHeld
	if _, err := reg.Load(triangleSpec("b2")); err != nil {
		t.Fatal(err)
	}
	var overload *OverloadError
	if _, err := reg.Load(triangleSpec("b3")); !errors.As(err, &overload) {
		t.Fatalf("load into a full queue: err = %v, want *OverloadError", err)
	}
	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	for reg.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(buildGate)
	<-closed

	// Close has drained every worker, so each counter is final. Snapshots:
	// the build-time one, the two compactions and Close's final one.
	got := scrapeMetrics(t, base)
	for series, want := range map[string]float64{
		`bcd_load_jobs_total{status="ok"}`:                1,
		`bcd_load_jobs_total{status="canceled"}`:          2,
		`bcd_overload_total{op="build"}`:                  1,
		`bcd_overload_total{op="mutation"}`:               1,
		`bcd_mutation_batches_total`:                      3,
		`bcd_mutation_batch_ops_total`:                    4,
		`bcd_topk_cache_total{result="miss"}`:             1,
		`bcd_topk_cache_total{result="hit"}`:              1,
		`bcd_durability_total{event="append"}`:            3,
		`bcd_durability_total{event="snapshot"}`:          4,
		`bcd_durability_total{event="recover"}`:           0,
		`bcd_durability_total{event="error"}`:             0,
		`bcd_incremental_updates_total{result="rebuild"}`: 1,
		`bcd_incremental_updates_total{result="local"}`:   3,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}

	// Recover in a fresh registry: one recover event, and two snapshots (the
	// build-time one and Close's final one).
	reg2 := NewRegistry(cfg)
	ts2 := httptest.NewServer(New(reg2, nil))
	t.Cleanup(func() {
		ts2.Close()
		reg2.Close()
	})
	names, err := reg2.Recover()
	if err != nil || len(names) != 1 || names[0] != "m" {
		t.Fatalf("Recover = %v, %v; want [m]", names, err)
	}
	if info := waitState(t, reg2.Get("m")); info.State != StateReady {
		t.Fatalf("recovered state %s (%s)", info.State, info.Error)
	}
	reg2.Close() // the build job counts its load after the entry turns ready
	got = scrapeMetrics(t, ts2.URL)
	for series, want := range map[string]float64{
		`bcd_durability_total{event="recover"}`:  1,
		`bcd_durability_total{event="snapshot"}`: 2,
		`bcd_load_jobs_total{status="ok"}`:       1,
		`bcd_graphs_loaded`:                      1,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("after Recover: %s = %v (present %v), want %v", series, v, ok, want)
		}
	}
}

// TestDirectedServing exercises the directed path end to end (load, query,
// mutate) — in/out degrees and transpose handling differ from undirected.
func TestDirectedServing(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	// A directed diamond with a tail: 0->1->3, 0->2->3, 3->4.
	edges := [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}
	loadAndWait(t, base, LoadSpec{Name: "dir", Edges: edges, Directed: true, Threshold: 1})

	var v3 VertexInfo
	if code := do(t, "GET", base+"/v1/graphs/dir/vertices/3", nil, &v3); code != http.StatusOK {
		t.Fatalf("vertex returned %d", code)
	}
	if v3.InDegree == nil || *v3.InDegree != 2 || v3.OutDegree != 1 {
		t.Fatalf("vertex 3 = %+v, want in=2 out=1", v3)
	}
	var mut MutationResult
	if code := do(t, "POST", base+"/v1/graphs/dir/edges",
		edgeRequest{From: 4, To: 0}, &mut); code != http.StatusOK {
		t.Fatalf("insert returned %d", code)
	}
	got := fetchScores(t, base, "dir")
	g := make([]graph.Edge, 0, len(edges)+1)
	for _, e := range edges {
		g = append(g, graph.Edge{From: e[0], To: e[1]})
	}
	g = append(g, graph.Edge{From: 4, To: 0})
	want, err := core.Compute(graph.NewFromEdges(5, g, true), core.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("directed bc[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// TestOverflowLoadFails: a graph whose shortest-path counts overflow float64
// (a width-2 complete-bipartite ladder of 1,100 layers between two apexes) is
// never served. Its load fails with graph.ErrPathCountOverflow as the cause,
// and every read of its scores answers 422, the failed state's status, not
// 500.
func TestOverflowLoadFails(t *testing.T) {
	ts, reg := newTestServer(t)
	const layers = 1100
	far := int32(2*layers + 1)
	edges := [][2]int32{{0, 1}, {0, 2}, {far - 2, far}, {far - 1, far}}
	for j := int32(0); j < layers-1; j++ {
		for _, a := range []int32{1 + 2*j, 2 + 2*j} {
			edges = append(edges, [2]int32{a, 3 + 2*j}, [2]int32{a, 4 + 2*j})
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/graphs", LoadSpec{Name: "ladder", N: int(far) + 1, Edges: edges}, nil); code != http.StatusAccepted {
		t.Fatalf("load returned %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info EntryInfo
	for do(t, "GET", ts.URL+"/v1/graphs/ladder", nil, &info); info.State == StateLoading; do(t, "GET", ts.URL+"/v1/graphs/ladder", nil, &info) {
		if time.Now().After(deadline) {
			t.Fatal("ladder load still loading after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info.State != StateFailed {
		t.Fatalf("ladder load: state %s, want %s", info.State, StateFailed)
	}
	if _, err := reg.Get("ladder").ready(); !errors.Is(err, graph.ErrPathCountOverflow) {
		t.Fatalf("ladder entry: %v, want ErrPathCountOverflow as the cause", err)
	}
	for _, path := range []string{"/bc", "/bc?top=3", "/bc?mode=approx&pivots=16", "/vertices/0", "/stats"} {
		if code := do(t, "GET", ts.URL+"/v1/graphs/ladder"+path, nil, nil); code != http.StatusUnprocessableEntity {
			t.Errorf("GET %s of the failed load: %d, want 422", path, code)
		}
	}
}
