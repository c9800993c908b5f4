package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// getWithHeaders issues a GET and returns status, body-decoded response and
// the two approx headers (empty when absent).
func getWithHeaders(t *testing.T, url string, out any) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
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
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-BC-Error-Estimate"), resp.Header.Get("X-BC-Pivots")
}

// erSpec loads a 200-vertex Erdős–Rényi graph inline: essentially one big
// biconnected block, so the estimator has a sub-graph large enough to
// actually sample (everything in the tiny lifecycle graph presolves).
func erSpec(name string) (LoadSpec, *graph.Graph) {
	g := gen.ErdosRenyi(200, 800, false, 3)
	edges := make([][2]int32, 0, g.NumEdges())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int32{e.From, e.To})
	}
	return LoadSpec{Name: name, N: g.NumVertices(), Edges: edges}, g
}

// TestApproxFullBudgetServesExact: pivots >= n must serve the exact scores
// with the exact flag, a zero error estimate, and both approx headers set.
func TestApproxFullBudgetServesExact(t *testing.T) {
	ts, _ := newTestServer(t)
	spec, _ := erSpec("er")
	loadAndWait(t, ts.URL, spec)

	exact := fetchScores(t, ts.URL, "er")
	var resp bcResponse
	code, errHdr, pivHdr := getWithHeaders(t,
		ts.URL+"/v1/graphs/er/bc?mode=approx&pivots=100000&top=0", &resp)
	if code != http.StatusOK {
		t.Fatalf("approx full budget returned %d", code)
	}
	if resp.Mode != "approx" || resp.Approx == nil {
		t.Fatalf("response not marked approx: %+v", resp)
	}
	if !resp.Approx.Exact || resp.Approx.ErrorEstimate != 0 {
		t.Fatalf("full budget not exact: %+v", *resp.Approx)
	}
	if errHdr == "" || pivHdr == "" {
		t.Fatalf("approx headers missing: err=%q pivots=%q", errHdr, pivHdr)
	}
	if hdr, _ := strconv.Atoi(pivHdr); hdr != resp.Approx.Pivots {
		t.Fatalf("X-BC-Pivots %q != body pivots %d", pivHdr, resp.Approx.Pivots)
	}
	if len(resp.Scores) != len(exact) {
		t.Fatalf("%d scores, want %d", len(resp.Scores), len(exact))
	}
	for v := range exact {
		if math.Abs(resp.Scores[v]-exact[v]) > 1e-9*(1+math.Abs(exact[v])) {
			t.Fatalf("vertex %d: approx-exact %v vs exact %v", v, resp.Scores[v], exact[v])
		}
	}
}

// TestApproxSampledQuery exercises the genuinely stochastic path: a budget
// below n must answer non-exact with a positive error estimate, and repeated
// queries only ever add pivots (the estimator refines, never restarts).
func TestApproxSampledQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	spec, _ := erSpec("ers")
	loadAndWait(t, ts.URL, spec)

	var resp bcResponse
	code, errHdr, _ := getWithHeaders(t, ts.URL+"/v1/graphs/ers/bc?mode=approx&pivots=40", &resp)
	if code != http.StatusOK {
		t.Fatalf("approx returned %d", code)
	}
	a := *resp.Approx
	if a.Exact {
		t.Fatalf("40-pivot budget on 200 vertices came back exact: %+v", a)
	}
	if a.Pivots < 40 || int64(a.Pivots) >= a.ExactRoots {
		t.Fatalf("implausible pivot count: %+v", a)
	}
	if a.ErrorEstimate <= 0 {
		t.Fatalf("sampled estimate carries no error estimate: %+v", a)
	}
	if v, err := strconv.ParseFloat(errHdr, 64); err != nil || v != a.ErrorEstimate {
		t.Fatalf("X-BC-Error-Estimate %q != body %v", errHdr, a.ErrorEstimate)
	}
	if len(resp.Top) != 10 {
		t.Fatalf("default top-K length %d, want 10", len(resp.Top))
	}

	// eps-driven follow-up on the same estimator: pivots must not shrink.
	var resp2 bcResponse
	code, _, _ = getWithHeaders(t, ts.URL+"/v1/graphs/ers/bc?mode=approx&eps=0.5", &resp2)
	if code != http.StatusOK {
		t.Fatalf("approx eps query returned %d", code)
	}
	if resp2.Approx.Pivots < a.Pivots {
		t.Fatalf("pivot count shrank: %d -> %d", a.Pivots, resp2.Approx.Pivots)
	}

	// The metrics endpoint must expose the new families with the graph label.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`bcd_approx_pivots_total{graph="ers"}`,
		`bcd_approx_error_estimate{graph="ers"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestApproxBadParams covers the 400 paths.
func TestApproxBadParams(t *testing.T) {
	ts, _ := newTestServer(t)
	loadAndWait(t, ts.URL, LoadSpec{Name: "g", N: lifecycleN, Edges: lifecycleEdges})
	for _, c := range []struct{ q, names string }{
		{"mode=bogus", "mode"},
		{"mode=approx&pivots=0", "pivots"},
		{"mode=approx&pivots=-3", "pivots"},
		{"mode=approx&eps=0", "eps"},
		{"mode=approx&eps=nope", "eps"},
		// An option that is accepted and ignored is a design bug: exact
		// mode takes neither pivots nor eps, and approx takes one of them.
		{"pivots=40", "pivots and eps"},
		{"mode=exact&eps=0.5", "pivots and eps"},
		{"mode=approx&pivots=40&eps=0.5", "pivots and eps"},
	} {
		var body errorBody
		code, _, _ := getWithHeaders(t, ts.URL+"/v1/graphs/g/bc?"+c.q, &body)
		if code != http.StatusBadRequest || !strings.Contains(body.Error, c.names) {
			t.Fatalf("query %q returned %d %q, want 400 naming %q", c.q, code, body.Error, c.names)
		}
	}
}

// TestApproxInvalidatedByMutation: after an edge mutation the estimator is
// rebuilt, so a full-budget approx query reflects the mutated graph.
func TestApproxInvalidatedByMutation(t *testing.T) {
	ts, _ := newTestServer(t)
	spec, _ := erSpec("erm")
	loadAndWait(t, ts.URL, spec)

	// Warm the estimator with a sampled query, then mutate.
	if code, _, _ := getWithHeaders(t, ts.URL+"/v1/graphs/erm/bc?mode=approx&pivots=40", nil); code != http.StatusOK {
		t.Fatalf("warmup returned %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/graphs/erm/edges",
		edgeRequest{From: 0, To: 199}, nil); code != http.StatusOK {
		t.Fatalf("edge insert failed: %d", code)
	}
	exact := fetchScores(t, ts.URL, "erm")
	var resp bcResponse
	code, _, _ := getWithHeaders(t, ts.URL+"/v1/graphs/erm/bc?mode=approx&pivots=100000&top=0", &resp)
	if code != http.StatusOK {
		t.Fatalf("post-mutation approx returned %d", code)
	}
	if !resp.Approx.Exact {
		t.Fatalf("full budget not exact after mutation: %+v", *resp.Approx)
	}
	for v := range exact {
		if math.Abs(resp.Scores[v]-exact[v]) > 1e-9*(1+math.Abs(exact[v])) {
			t.Fatalf("vertex %d stale after mutation: %v vs %v", v, resp.Scores[v], exact[v])
		}
	}
}
