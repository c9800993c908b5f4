package approx

import (
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraphs mirrors the seed suites: small structured graphs plus
// social-like generators with articulation-point structure.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":     gen.Path(20),
		"star":     gen.Star(20),
		"lollipop": gen.Lollipop(6, 10),
		"tree":     gen.Tree(50, 1),
		"caveman":  gen.Caveman(4, 6, false),
		"grid":     gen.Grid2D(6, 6),
		"social": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		"socialDir": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3,
			Directed: true, Reciprocity: 0.5, Seed: 2}),
		"er": gen.ErdosRenyi(300, 900, false, 7),
	}
}

// exactReference computes BC with the exact one-worker path: sub-graphs
// in index order, serial sweeps, roots in sg.Roots order — the schedule a
// full-budget estimator replays.
func exactReference(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	bc, err := core.Compute(g, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// TestExactBudgetBitMatch is the K == n acceptance check: a budget covering
// every root must reproduce exact BC bit-identically (same sweeps, same
// accumulation order), with Exact set and zero error.
func TestExactBudgetBitMatch(t *testing.T) {
	for name, g := range testGraphs() {
		want := exactReference(t, g)
		res, err := Estimate(g, Options{Pivots: g.NumVertices(), Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Exact {
			t.Errorf("%s: full budget not flagged exact", name)
		}
		if res.ErrEstimate != 0 {
			t.Errorf("%s: exact result reports error %g", name, res.ErrEstimate)
		}
		for v := range want {
			if res.BC[v] != want[v] {
				t.Fatalf("%s: vertex %d: approx %v != exact %v (bit mismatch)",
					name, v, res.BC[v], want[v])
			}
		}
		// Cross-check against plain Brandes within tolerance (the strategy
		// equivalence itself is covered by core's tests).
		serial := brandes.Serial(g)
		for v := range serial {
			if math.Abs(res.BC[v]-serial[v]) > 1e-7*(1+math.Abs(serial[v])) {
				t.Fatalf("%s: vertex %d: approx %v vs brandes %v", name, v, res.BC[v], serial[v])
			}
		}
	}
}

// TestExactBudgetWorkersBitMatch pins that the full-budget path is
// deterministic and still bit-exact with parallel workers (contributions are
// computed per sub-graph and folded serially in index order).
func TestExactBudgetWorkersBitMatch(t *testing.T) {
	g := testGraphs()["social"]
	want := exactReference(t, g)
	res, err := Estimate(g, Options{Pivots: g.NumVertices(), Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.BC[v] != want[v] {
			t.Fatalf("vertex %d: %v != %v with 4 workers", v, res.BC[v], want[v])
		}
	}
}

// TestSeededDeterminism: identical options reproduce identical estimates,
// for any worker count; a different seed samples a different pivot set.
func TestSeededDeterminism(t *testing.T) {
	g := testGraphs()["social"]
	opt := Options{Pivots: 60, Seed: 11}
	a, err := Estimate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	optP := opt
	optP.Workers = 4
	c, err := Estimate(g, optP)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pivots != b.Pivots || a.ErrEstimate != b.ErrEstimate {
		t.Fatalf("same seed, different metadata: %+v vs %+v", a, b)
	}
	for v := range a.BC {
		if a.BC[v] != b.BC[v] {
			t.Fatalf("same seed, vertex %d differs: %v vs %v", v, a.BC[v], b.BC[v])
		}
		if a.BC[v] != c.BC[v] {
			t.Fatalf("worker count changed vertex %d: %v vs %v", v, a.BC[v], c.BC[v])
		}
	}
	optO := opt
	optO.Seed = 12
	d, err := Estimate(g, optO)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.BC {
		if a.BC[v] != d.BC[v] {
			same = false
			break
		}
	}
	if same && !a.Exact {
		t.Fatal("different seeds produced identical non-exact estimates")
	}
}

// normalizedMaxErr is max_v |a-b| / ((n-1)(n-2)).
func normalizedMaxErr(a, b []float64) float64 {
	n := len(a)
	norm := 1.0
	if n > 2 {
		norm = 1 / (float64(n-1) * float64(n-2))
	}
	worst := 0.0
	for v := range a {
		if d := math.Abs(a[v] - b[v]); d > worst {
			worst = d
		}
	}
	return worst * norm
}

// TestAdaptiveEps: the adaptive mode terminates, reports an error bound at
// or below the target, and the measured error is in the bound's ballpark.
// Seeded sampling keeps this deterministic, so the loose factor only covers
// the bootstrap's approximation, not run-to-run noise.
func TestAdaptiveEps(t *testing.T) {
	g := testGraphs()["social"]
	exact := exactReference(t, g)
	const eps = 0.02
	res, err := Estimate(g, Options{Eps: eps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact && res.ErrEstimate > eps {
		t.Fatalf("stopped with error estimate %g > eps %g", res.ErrEstimate, eps)
	}
	if got := normalizedMaxErr(res.BC, exact); got > 5*eps {
		t.Fatalf("measured normalized error %g far above eps %g", got, eps)
	}
	if res.Pivots <= 0 || res.Pivots > int(res.ExactRoots) {
		t.Fatalf("implausible pivot count %d (exact roots %d)", res.Pivots, res.ExactRoots)
	}
}

// TestEstimatorRefinement drives an estimator by hand, batch by batch: pivots
// grow monotonically, the error estimate becomes finite after two batches,
// and saturation reaches the exact scores.
func TestEstimatorRefinement(t *testing.T) {
	g := testGraphs()["caveman"]
	exact := exactReference(t, g)
	est, err := newEstimator(mustDecompose(t, g), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	prev := est.pivots
	for i := 0; i < 100 && !est.exact(); i++ {
		ran, err := est.refine(4)
		if err != nil {
			t.Fatal(err)
		}
		if ran < 0 || est.pivots < prev {
			t.Fatalf("pivot count went backwards: %d -> %d", prev, est.pivots)
		}
		prev = est.pivots
		if len(est.batches) >= 2 && math.IsInf(est.errorEstimate(), 1) {
			t.Fatal("error estimate still infinite with >= 2 batches")
		}
	}
	if !est.exact() {
		t.Fatalf("estimator failed to saturate after %d pivots", est.pivots)
	}
	if est.errorEstimate() != 0 {
		t.Fatalf("saturated estimator reports error %g", est.errorEstimate())
	}
	got := est.estimate()
	for v := range exact {
		if math.Abs(got[v]-exact[v]) > 1e-9*(1+math.Abs(exact[v])) {
			t.Fatalf("saturated estimate differs at %d: %v vs %v", v, got[v], exact[v])
		}
	}
}

func mustDecompose(t *testing.T, g *graph.Graph) *decompose.Decomposition {
	t.Helper()
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOptionValidation covers the error paths: no mode selected and
// weighted input.
func TestOptionValidation(t *testing.T) {
	g := gen.Path(10)
	if _, err := Estimate(g, Options{}); err == nil {
		t.Fatal("expected error when neither Pivots nor Eps is set")
	}
	w := gen.WithRandomWeights(gen.Lollipop(4, 4), 5, 3)
	if _, err := Estimate(w, Options{Pivots: 4}); err == nil {
		t.Fatal("expected error for weighted graph")
	}
}

// TestEmptyAndTiny covers degenerate inputs.
func TestEmptyAndTiny(t *testing.T) {
	empty := graph.NewFromEdges(0, nil, false)
	res, err := Estimate(empty, Options{Pivots: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BC) != 0 || !res.Exact {
		t.Fatalf("empty graph: %+v", res)
	}
	two := graph.NewFromEdges(2, []graph.Edge{{From: 0, To: 1}}, false)
	res, err = Estimate(two, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.BC[0] != 0 || res.BC[1] != 0 {
		t.Fatalf("two-vertex graph: %+v", res)
	}
}

// TestZQuantile pins the stopping rule's critical value: the float64 that
// Acklam's inverse-normal approximation returned at the two-sided 95 % level,
// so ErrEstimate stays bit-identical to the estimator that computed it.
func TestZQuantile(t *testing.T) {
	if z95 != 1.959963986120195 || math.Abs(z95-1.959964) > 1e-6 {
		t.Errorf("z95 = %v, want 1.959963986120195", z95)
	}
}

// TestEstimateReturnsItsWorkspaces: Estimate hands every pooled sweep
// workspace it checked out back to core's arena, so repeated calls reuse them
// instead of each leaving its own checked out.
func TestEstimateReturnsItsWorkspaces(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 6, TopShare: 0.4, LeafFrac: 0.2, Seed: 3})
	_, before := core.SweepPoolStats()
	for _, opt := range []Options{{Pivots: 40, Seed: 1, Workers: 2}, {Eps: 0.05, Seed: 1, Workers: 2}} {
		if _, err := Estimate(g, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := core.SweepPoolStats(); after != before {
		t.Fatalf("%d workspaces checked out after Estimate, %d before", after, before)
	}
}
