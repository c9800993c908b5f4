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

func bcClose(a, b []float64, tol float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff > tol*scale {
			return i, false
		}
	}
	return -1, true
}

func assertMatchesBrandes(t *testing.T, g *graph.Graph, opt Options, label string) {
	t.Helper()
	want := brandes.Serial(g)
	got, err := Compute(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if i, ok := bcClose(want, got, 1e-9); !ok {
		t.Fatalf("%s: APGRE differs from Brandes at vertex %d: want %v got %v",
			label, i, want[i], got[i])
	}
}

func TestPaperExampleGraphs(t *testing.T) {
	// The structures §2.2 uses to motivate the approach.
	cases := map[string]*graph.Graph{
		"path":        gen.Path(20),
		"star":        gen.Star(20),
		"cycle":       gen.Cycle(15),
		"lollipop":    gen.Lollipop(6, 10),
		"tree":        gen.Tree(50, 1),
		"caveman":     gen.Caveman(4, 6, false),
		"cavemanRing": gen.Caveman(4, 6, true),
		"grid":        gen.Grid2D(6, 6),
		"K2":          graph.NewFromEdges(2, []graph.Edge{{From: 0, To: 1}}, false),
		"K1":          graph.NewFromEdges(1, nil, false),
		"empty":       graph.NewFromEdges(0, nil, false),
	}
	for name, g := range cases {
		assertMatchesBrandes(t, g, Options{Threshold: 4}, name)
	}
}

func TestFigure3Graph(t *testing.T) {
	// The 13-vertex graph of paper Figure 3 (directed), and its undirected
	// view, with several thresholds.
	edges := []graph.Edge{
		{From: 0, To: 2}, {From: 1, To: 2},
		{From: 2, To: 5}, {From: 2, To: 4},
		{From: 5, To: 3}, {From: 5, To: 6}, {From: 4, To: 3}, {From: 4, To: 6},
		{From: 3, To: 12}, {From: 3, To: 10}, {From: 10, To: 12},
		{From: 6, To: 7}, {From: 6, To: 8}, {From: 7, To: 9}, {From: 8, To: 9},
	}
	for _, directed := range []bool{true, false} {
		g := graph.NewFromEdges(13, edges, directed)
		for _, th := range []int{1, 2, 4, 1000} {
			assertMatchesBrandes(t, g, Options{Threshold: th}, "figure3")
		}
	}
}

func TestSocialGraphsAllStrategies(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 2}),
		gen.RoadLike(gen.RoadParams{Rows: 9, Cols: 9, DeleteFrac: 0.12, SpurFrac: 0.15, SpurLen: 2, Seed: 3}),
		gen.BarabasiAlbert(300, 2, 4),
	}
	for _, g := range graphs {
		for _, w := range []int{1, 3} {
			assertMatchesBrandes(t, g, Options{Workers: w, Threshold: 8}, "social")
		}
	}
}

// TestAlphaBetaMethodsAgree holds the α/β Decompose composes along the
// sub-graph/AP forest and the paper's definition of them — per boundary AP, a
// count of what it reaches and is reached from with the rest of its sub-graph
// blocked (definitionAlphaBeta) — to the same scores, undirected and directed.
func TestAlphaBetaMethodsAgree(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.SocialLike(gen.SocialParams{N: 350, AvgDeg: 4, Communities: 7, TopShare: 0.4, LeafFrac: 0.3,
			Directed: directed, Reciprocity: 0.5, Seed: 6})
		a, err := Compute(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range d.Subgraphs {
			inSG := map[graph.V]bool{}
			for _, v := range sg.Verts {
				inSG[v] = true
			}
			for _, la := range sg.Arts {
				ap := sg.Verts[la]
				sg.Alpha[la], sg.Beta[la] = definitionAlphaBeta(g, ap, inSG)
			}
		}
		b, err := ComputeDecomposed(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bcClose(a, b, 0); !ok {
			t.Fatalf("directed %v: methods differ at %d", directed, i)
		}
	}
}

func TestDisableGammaStillExact(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 5, TopShare: 0.5, LeafFrac: 0.35, Seed: 7})
	assertMatchesBrandes(t, g, Options{DisableGamma: true}, "gamma-off")
	gd := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 5, TopShare: 0.5, LeafFrac: 0.35, Directed: true, Reciprocity: 0.4, Seed: 8})
	assertMatchesBrandes(t, gd, Options{DisableGamma: true}, "gamma-off-directed")
}

func TestGammaReducesRoots(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 4, Communities: 5, TopShare: 0.5, LeafFrac: 0.4, Seed: 9})
	var with, without Breakdown
	if _, err := Compute(g, Options{Breakdown: &with}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(g, Options{DisableGamma: true, Breakdown: &without}); err != nil {
		t.Fatal(err)
	}
	if with.Roots >= without.Roots {
		t.Fatalf("gamma elimination did not reduce roots: %d vs %d", with.Roots, without.Roots)
	}
	if with.TraversedArcs >= without.TraversedArcs {
		t.Fatalf("gamma elimination did not reduce work: %d vs %d", with.TraversedArcs, without.TraversedArcs)
	}
}

func TestBreakdownPopulated(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 6, TopShare: 0.5, LeafFrac: 0.2, Seed: 10})
	var bd Breakdown
	if _, err := Compute(g, Options{Breakdown: &bd}); err != nil {
		t.Fatal(err)
	}
	if bd.Subgraphs <= 1 {
		t.Fatalf("breakdown subgraphs = %d", bd.Subgraphs)
	}
	if bd.TraversedArcs == 0 || bd.Roots == 0 {
		t.Fatalf("breakdown counters empty: %+v", bd)
	}
	if bd.Total < bd.Partition || bd.Total < bd.TopBC {
		t.Fatalf("breakdown total inconsistent: %+v", bd)
	}
}

func TestAPGREReducesWorkVsBrandes(t *testing.T) {
	// On a leafy community graph APGRE must traverse far fewer arcs than
	// Brandes' n BFS sweeps.
	g := gen.SocialLike(gen.SocialParams{N: 1000, AvgDeg: 5, Communities: 12, TopShare: 0.4, LeafFrac: 0.35, Seed: 11})
	var bd Breakdown
	if _, err := Compute(g, Options{Breakdown: &bd}); err != nil {
		t.Fatal(err)
	}
	brandesWork := int64(g.NumVertices()) * g.NumArcs() // connected undirected: every BFS scans all arcs
	if bd.TraversedArcs*2 > brandesWork {
		t.Fatalf("APGRE work %d not < half of Brandes %d", bd.TraversedArcs, brandesWork)
	}
}

func TestComputeDecomposedReuse(t *testing.T) {
	g := gen.Caveman(5, 6, false)
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := brandes.Serial(g)
	for run := 0; run < 2; run++ {
		got, err := ComputeDecomposed(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bcClose(want, got, 1e-9); !ok {
			t.Fatalf("reused decomposition differs at %d", i)
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Components + isolated vertices.
	edges := append(gen.Caveman(3, 4, false).Edges(),
		graph.Edge{From: 13, To: 14}, graph.Edge{From: 14, To: 15})
	g := graph.NewFromEdges(18, edges, false)
	assertMatchesBrandes(t, g, Options{Threshold: 3}, "disconnected")
}

// The decisive property test: APGRE ≡ Brandes on random graphs of every
// flavour (sparse/dense, directed/undirected, varying thresholds and worker
// counts). The undirected γ root-term correction and every dependency seed
// is exercised here.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64, cfg uint8) bool {
		directed := cfg&1 != 0
		th := []int{1, 4, 64}[int(cfg>>1)%3]
		w := 1 + int(cfg>>3)%3
		var g *graph.Graph
		switch int(cfg>>5) % 3 {
		case 0:
			g = gen.ErdosRenyi(70, 140, directed, seed)
		case 1:
			g = gen.SocialLike(gen.SocialParams{N: 120, AvgDeg: 4, Communities: 4,
				TopShare: 0.5, LeafFrac: 0.3, Directed: directed, Reciprocity: 0.5, Seed: seed})
		default:
			g = gen.RoadLike(gen.RoadParams{Rows: 6, Cols: 7, DeleteFrac: 0.15,
				SpurFrac: 0.2, SpurLen: 2, Seed: seed})
		}
		want := brandes.Serial(g)
		got, err := Compute(g, Options{Threshold: th, Workers: w})
		if err != nil {
			return false
		}
		_, ok := bcClose(want, got, 1e-9)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BC of an articulation point equals the sum of its sub-graph
// scores and is always >= the plain count of cross pairs through it.
func TestQuickArticulationScores(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Caveman(3, 4, false)
		_ = seed
		want := brandes.Serial(g)
		got, err := Compute(g, Options{Threshold: 3})
		if err != nil {
			return false
		}
		_, ok := bcClose(want, got, 1e-9)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// definitionAlphaBeta counts by BFS over g what a reaches (α) and what reaches
// a (β: the same count along in-arcs when g is directed) without entering a
// vertex of blocked other than a — the paper's §3.1 definition, written apart
// from the production code so that it stays an oracle.
func definitionAlphaBeta(g *graph.Graph, a graph.V, blocked map[graph.V]bool) (alpha, beta float64) {
	count := func(next func(graph.V) []graph.V) float64 {
		seen := make([]bool, g.NumVertices())
		seen[a] = true
		reached := 0
		for queue := []graph.V{a}; len(queue) > 0; queue = queue[1:] {
			for _, v := range next(queue[0]) {
				if !seen[v] && !blocked[v] {
					seen[v] = true
					reached++
					queue = append(queue, v)
				}
			}
		}
		return float64(reached)
	}
	alpha = count(g.Out)
	if !g.Directed() {
		return alpha, alpha
	}
	return alpha, count(g.In)
}
