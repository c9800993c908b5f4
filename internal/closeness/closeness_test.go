package closeness

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

// assertResultsEqual holds Decomposed to Exact, and Decomposed at 2 and 8
// workers to its 1-worker run bit for bit: each farness is one item's sum,
// whichever worker runs it.
func assertResultsEqual(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	want := Exact(g, 2)
	got, err := Decomposed(g, Options{Workers: 1, Threshold: 4})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for v := range want.Farness {
		if math.Abs(want.Farness[v]-got.Farness[v]) > 1e-9*(1+want.Farness[v]) {
			t.Fatalf("%s: farness differs at %d: %v vs %v", label, v,
				want.Farness[v], got.Farness[v])
		}
		if want.Reach[v] != got.Reach[v] {
			t.Fatalf("%s: reach differs at %d: %v vs %v", label, v,
				want.Reach[v], got.Reach[v])
		}
		if math.Abs(want.Closeness[v]-got.Closeness[v]) > 1e-9 {
			t.Fatalf("%s: closeness differs at %d", label, v)
		}
	}
	for _, p := range []int{2, 8} {
		again, err := Decomposed(g, Options{Workers: p, Threshold: 4})
		if err != nil {
			t.Fatalf("%s p=%d: %v", label, p, err)
		}
		for v := range got.Farness {
			if math.Float64bits(again.Farness[v]) != math.Float64bits(got.Farness[v]) ||
				again.Reach[v] != got.Reach[v] {
				t.Fatalf("%s: p=%d differs from p=1 at %d: %v vs %v", label, p, v,
					again.Farness[v], got.Farness[v])
			}
		}
	}
}

func TestExactPath(t *testing.T) {
	res := Exact(gen.Path(5), 1)
	// Vertex 0: 1+2+3+4 = 10; vertex 2: 2+1+1+2 = 6.
	if res.Farness[0] != 10 || res.Farness[2] != 6 {
		t.Fatalf("farness = %v", res.Farness)
	}
	if res.Reach[0] != 4 {
		t.Fatalf("reach = %v", res.Reach)
	}
	if res.Closeness[2] != 4.0/6.0 {
		t.Fatalf("closeness[2] = %v", res.Closeness[2])
	}
}

func TestExactDirected(t *testing.T) {
	g := graph.NewFromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, true)
	res := Exact(g, 1)
	if res.Farness[0] != 3 || res.Reach[0] != 2 {
		t.Fatalf("source farness/reach = %v/%v", res.Farness[0], res.Reach[0])
	}
	if res.Farness[2] != 0 || res.Closeness[2] != 0 {
		t.Fatalf("sink should have zero closeness: %v", res.Farness[2])
	}
}

func TestDecomposedMatchesExact(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":     gen.Path(20),
		"star":     gen.Star(15),
		"cycle":    gen.Cycle(12),
		"lollipop": gen.Lollipop(6, 8),
		"caveman":  gen.Caveman(4, 5, false),
		"tree":     gen.Tree(60, 1),
		"social": gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 4, Communities: 7,
			TopShare: 0.4, LeafFrac: 0.35, Seed: 2}),
		"road": gen.RoadLike(gen.RoadParams{Rows: 8, Cols: 9, DeleteFrac: 0.12,
			SpurFrac: 0.2, SpurLen: 2, Seed: 3}),
		"road-large": roadLarge,
		"grid":       gen.Grid2D(6, 6),
		"K2":         graph.NewFromEdges(2, []graph.Edge{{From: 0, To: 1}}, false),
	}
	for label, g := range cases {
		assertResultsEqual(t, g, label)
	}
	// The worker sweep above means something only if the top sub-graph's
	// roots are spread over the workers next to other sub-graphs.
	d, err := decompose.Decompose(roadLarge, decompose.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if top := len(d.Subgraphs[d.TopIndex].Roots); len(d.Subgraphs) < 2 || top < 8*itemGrain {
		t.Fatalf("road-large: %d sub-graphs, %d top roots", len(d.Subgraphs), top)
	}
}

// roadLarge is a road stand-in whose top sub-graph spans many work items.
var roadLarge = gen.RoadLike(gen.RoadParams{Rows: 24, Cols: 24, DeleteFrac: 0.12,
	SpurFrac: 0.2, SpurLen: 2, Seed: 5})

func TestDecomposedDisconnected(t *testing.T) {
	// Two components, one with leaves.
	edges := append(gen.Star(6).Edges(),
		graph.Edge{From: 6, To: 7}, graph.Edge{From: 7, To: 8})
	g := graph.NewFromEdges(9, edges, false)
	assertResultsEqual(t, g, "disconnected")
}

func TestDecomposedRejectsDirected(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, true, 1)
	if _, err := Decomposed(g, Options{}); err == nil {
		t.Fatal("expected error for directed input")
	}
}

func TestDecomposedRejectsWeighted(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := graph.NewWeightedFromEdges(3, []graph.WeightedEdge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 5}}, directed)
		if _, err := Decomposed(g, Options{}); err == nil {
			t.Fatalf("expected error for weighted input (directed %v)", directed)
		}
	}
}

func TestDecomposedEmpty(t *testing.T) {
	res, err := Decomposed(graph.NewFromEdges(0, nil, false), Options{})
	if err != nil || len(res.Farness) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}

// Property: decomposed closeness equals exact closeness on random social
// graphs across thresholds.
func TestQuickDecomposedEquivalence(t *testing.T) {
	f := func(seed int64, thRaw uint8) bool {
		th := []int{1, 4, 64}[int(thRaw)%3]
		g := gen.SocialLike(gen.SocialParams{N: 150, AvgDeg: 4, Communities: 5,
			TopShare: 0.4, LeafFrac: 0.3, Seed: seed})
		want := Exact(g, 1)
		got, err := Decomposed(g, Options{Threshold: th})
		if err != nil {
			return false
		}
		for v := range want.Farness {
			if math.Abs(want.Farness[v]-got.Farness[v]) > 1e-9*(1+want.Farness[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStarCloseness(t *testing.T) {
	got, err := Decomposed(gen.Star(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hub: farness 9; leaves: 1 + 2*8 = 17.
	if got.Farness[0] != 9 {
		t.Fatalf("hub farness = %v", got.Farness[0])
	}
	for v := 1; v < 10; v++ {
		if got.Farness[v] != 17 {
			t.Fatalf("leaf farness = %v", got.Farness[v])
		}
	}
}
