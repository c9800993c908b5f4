package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
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

// TestConcurrentMutateQuery hammers one graph with concurrent mutations and
// queries; run under -race this is the serving subsystem's thread-safety
// proof. Each mutator toggles its own private edge an even number of times,
// so the final state must equal the base graph — bit for bit.
func TestConcurrentMutateQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "conc", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})

	const rounds = 10
	toggles := [][2]int32{
		{1, 3}, // intra-block chord (local path)
		{9, 4}, // cross-component (rebuild path)
		{9, 3}, // another cross-component edge
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for _, e := range toggles {
		wg.Add(1)
		go func(e [2]int32) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/graphs/conc/edges", base)
			for i := 0; i < rounds; i++ {
				for _, method := range []string{"POST", "DELETE"} {
					req, _ := http.NewRequest(method,
						fmt.Sprintf("%s?from=%d&to=%d", url, e[0], e[1]), nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						errs <- err.Error()
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- fmt.Sprintf("%s %v: status %d", method, e, resp.StatusCode)
						return
					}
				}
			}
		}(e)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{
				"/v1/graphs/conc/bc?top=5",
				"/v1/graphs/conc/vertices/3",
				"/v1/graphs/conc/stats",
				"/v1/graphs",
				"/metrics",
			}
			for i := 0; i < rounds*4; i++ {
				resp, err := http.Get(base + paths[i%len(paths)])
				if err != nil {
					errs <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("GET %s: status %d", paths[i%len(paths)], resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	assertBitIdentical(t, "after concurrent toggles",
		fetchScores(t, base, "conc"), lifecycleGraph(nil, nil))
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
