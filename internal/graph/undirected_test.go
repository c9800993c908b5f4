package graph_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestUndirectedMatchesSortedBuild holds the row merge of Graph.Undirected to
// the formulation it replaced — the edge list rebuilt as an undirected graph,
// every row sorted and deduplicated — on directed generator families, on the
// orientations internal/decompose's build tests use (every low-to-high arc,
// every third one reciprocal), with weights (dropped), and on a graph with
// reciprocal arcs, a vertex with only in-arcs and isolated vertices.
func TestUndirectedMatchesSortedBuild(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"socialDir": gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 5, Communities: 6,
			TopShare: 0.5, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 2}),
		"erDir":   gen.ErdosRenyi(300, 900, true, 7),
		"rmatDir": gen.RMAT(9, 6, 0.57, 0.19, 0.19, true, 4),
		"hand": graph.NewFromEdges(9, []graph.Edge{
			{From: 1, To: 2}, {From: 2, To: 1}, {From: 1, To: 5}, {From: 7, To: 1},
			{From: 5, To: 7}, {From: 7, To: 5}, {From: 2, To: 8}, {From: 5, To: 8},
		}, true),
		"empty": graph.NewFromEdges(4, nil, true),
	}
	for name, base := range map[string]*graph.Graph{
		"path": gen.Path(20), "star": gen.Star(20), "lollipop": gen.Lollipop(6, 10), "tree": gen.Tree(50, 1),
		"caveman": gen.Caveman(4, 6, false), "grid": gen.Grid2D(6, 6), "er": gen.ErdosRenyi(300, 900, false, 7),
	} {
		var edges []graph.Edge
		for i, e := range base.Edges() {
			edges = append(edges, e)
			if i%3 == 0 {
				edges = append(edges, graph.Edge{From: e.To, To: e.From})
			}
		}
		graphs[name+"/oriented"] = graph.NewFromEdges(base.NumVertices(), edges, true)
	}
	for name, g := range graphs {
		for _, g := range []*graph.Graph{g, gen.WithRandomWeights(g, 9, 3)} {
			got, want := g.Undirected(), graph.NewFromEdges(g.NumVertices(), g.Edges(), false)
			if got.Directed() || got.Weighted() || got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() {
				t.Fatalf("%s: %v, want %v", name, got, want)
			}
			for u := graph.V(0); int(u) < g.NumVertices(); u++ {
				if !slices.Equal(got.Out(u), want.Out(u)) {
					t.Fatalf("%s: row %d is %v, want %v", name, u, got.Out(u), want.Out(u))
				}
			}
		}
	}
}
