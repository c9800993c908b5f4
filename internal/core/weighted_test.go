package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
)

func assertWeightedMatches(t *testing.T, g *graph.Graph, opt Options, label string) {
	t.Helper()
	want := brandes.Serial(g)
	got, err := Compute(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("%s: weighted APGRE differs at vertex %d: want %v got %v",
			label, i, want[i], got[i])
	}
}

func TestWeightedSerialHand(t *testing.T) {
	// Weighted diamond: 0-1 (1), 0-2 (2), 1-3 (1), 2-3 (1): unique shortest
	// path 0-1-3 of length 2 beats 0-2-3 of length 3. BC(1) counts (0,3)
	// both directions = 2; BC(2) only carries pair (0,2)... nothing.
	g := graph.NewWeightedFromEdges(4, []graph.WeightedEdge{
		{From: 0, To: 1, W: 1}, {From: 0, To: 2, W: 2},
		{From: 1, To: 3, W: 1}, {From: 2, To: 3, W: 1},
	}, false)
	bc := brandes.Serial(g)
	if bc[1] != 2 || bc[2] != 0 {
		t.Fatalf("bc = %v, want [0 2 0 0]", bc)
	}
	// Equal-length tie: make 0-2-3 also length 2 → σ(0,3)=2, each carries 1/2
	// per direction.
	g2 := graph.NewWeightedFromEdges(4, []graph.WeightedEdge{
		{From: 0, To: 1, W: 1}, {From: 0, To: 2, W: 1},
		{From: 1, To: 3, W: 1}, {From: 2, To: 3, W: 1},
	}, false)
	bc2 := brandes.Serial(g2)
	if bc2[1] != 1 || bc2[2] != 1 {
		t.Fatalf("bc2 = %v, want middles 1", bc2)
	}
}

func TestWeightedUnitMatchesUnweighted(t *testing.T) {
	// Unit weights must reproduce the unweighted scores exactly.
	graphs := []*graph.Graph{
		gen.Path(15),
		gen.Star(12),
		gen.SocialLike(gen.SocialParams{N: 200, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		gen.ErdosRenyi(80, 200, true, 2),
	}
	for gi, g := range graphs {
		want := brandes.Serial(g)
		wg := unitWeights(g)
		got := brandes.Serial(wg)
		if i, ok := bcClose(want, got, 1e-9); !ok {
			t.Fatalf("graph %d: unit-weight mismatch at %d", gi, i)
		}
		got2, err := Compute(wg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bcClose(want, got2, 1e-9); !ok {
			t.Fatalf("graph %d: weighted APGRE unit mismatch at %d", gi, i)
		}
	}
}

func TestWeightedAPGREMatchesDijkstra(t *testing.T) {
	cases := []*graph.Graph{
		gen.WithRandomWeights(gen.Caveman(4, 5, false), 5, 1),
		gen.WithRandomWeights(gen.Lollipop(6, 8), 4, 2),
		gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4,
			Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 3}), 7, 3),
		gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{N: 250, AvgDeg: 4,
			Communities: 5, TopShare: 0.5, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 4}), 6, 4),
		gen.WithRandomWeights(gen.RoadLike(gen.RoadParams{Rows: 8, Cols: 8,
			DeleteFrac: 0.1, SpurFrac: 0.2, SpurLen: 2, Seed: 5}), 9, 5),
	}
	for gi, g := range cases {
		for _, th := range []int{2, 64} {
			for _, w := range []int{1, 3} {
				assertWeightedMatches(t, g, Options{Threshold: th, Workers: w},
					string(rune('a'+gi)))
			}
		}
	}
}

func TestWeightedGammaElimination(t *testing.T) {
	// Star with weighted spokes: all leaves fold into the hub.
	var wedges []graph.WeightedEdge
	for i := 1; i <= 8; i++ {
		wedges = append(wedges, graph.WeightedEdge{From: 0, To: graph.V(i), W: float64(i)})
	}
	g := graph.NewWeightedFromEdges(9, wedges, false)
	var bd Breakdown
	got, err := Compute(g, Options{Breakdown: &bd})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Roots != 1 {
		t.Fatalf("roots = %d, want 1 (all leaves folded)", bd.Roots)
	}
	want := brandes.Serial(g)
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("weighted star differs at %d", i)
	}
	if got[0] != 8*7 {
		t.Fatalf("hub bc = %v, want 56", got[0])
	}
}

// Property: weighted APGRE ≡ weighted Brandes on random weighted graphs of
// both directednesses and with γ on/off.
func TestQuickWeightedEquivalence(t *testing.T) {
	f := func(seed int64, cfg uint8) bool {
		directed := cfg&1 != 0
		base := gen.SocialLike(gen.SocialParams{N: 100, AvgDeg: 4, Communities: 4,
			TopShare: 0.5, LeafFrac: 0.3, Directed: directed, Reciprocity: 0.5, Seed: seed})
		g := gen.WithRandomWeights(base, 1+int(cfg>>1)%8, seed+1)
		want := brandes.Serial(g)
		got, err := Compute(g, Options{Threshold: 4, DisableGamma: cfg&2 != 0})
		if err != nil {
			return false
		}
		_, ok := bcClose(want, got, 1e-9)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedVsUnweightedDiffer(t *testing.T) {
	// Sanity: weights actually change the answer on a graph where the
	// heavy edge diverts shortest paths.
	base := gen.Cycle(6)
	unw := brandes.Serial(base)
	var wedges []graph.WeightedEdge
	for i, e := range base.Edges() {
		w := 1.0
		if i == 0 {
			w = 10 // one heavy edge forces paths the long way round
		}
		wedges = append(wedges, graph.WeightedEdge{From: e.From, To: e.To, W: w})
	}
	wg := graph.NewWeightedFromEdges(6, wedges, false)
	w := brandes.Serial(wg)
	if _, same := bcClose(unw, w, 1e-9); same {
		t.Fatal("weights had no effect on cycle BC")
	}
	if math.IsNaN(w[0]) {
		t.Fatal("NaN score")
	}
}

// TestComputeHonoursWeights: both entry points sweep a weighted graph with
// Dijkstra — the scores of Dijkstra-Brandes, never the hop-count scores of
// the same topology.
func TestComputeHonoursWeights(t *testing.T) {
	g := gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4,
		Communities: 5, TopShare: 0.5, LeafFrac: 0.3, Seed: 22}), 7, 22)
	want := brandes.Serial(g)
	got, err := Compute(g, Options{Workers: 2, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("Compute ignores weights at vertex %d: want %v got %v", i, want[i], got[i])
	}
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err = ComputeDecomposed(d, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("ComputeDecomposed ignores weights at vertex %d: want %v got %v", i, want[i], got[i])
	}
}

// TestWeightedRejectsMSBFS: the batched kernel is BFS-based, so asking for it
// on a weighted graph is an error from every entry point, not a scalar run.
func TestWeightedRejectsMSBFS(t *testing.T) {
	g := gen.WithRandomWeights(gen.Caveman(4, 6, false), 5, 21)
	opt := Options{RootEngine: EngineMSBFS}
	if _, err := Compute(g, opt); err == nil {
		t.Error("Compute accepted EngineMSBFS on a weighted graph")
	}
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeDecomposed(d, opt); err == nil {
		t.Error("ComputeDecomposed accepted EngineMSBFS on a weighted graph")
	}
}

// unitWeights returns a weighted copy of g with every edge at weight 1.
func unitWeights(g *graph.Graph) *graph.Graph {
	var wedges []graph.WeightedEdge
	for _, e := range g.Edges() {
		wedges = append(wedges, graph.WeightedEdge{From: e.From, To: e.To, W: 1})
	}
	return graph.NewWeightedFromEdges(g.NumVertices(), wedges, g.Directed())
}
