package decompose

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Cross-validation of α and β against their paper definitions computed with
// an independent BFS: α_SGi(a) = vertices a reaches without passing
// through SGi; β_SGi(a) = vertices that reach a without passing through SGi.
func TestAlphaBetaDefinition(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SocialLike(gen.SocialParams{N: 250, AvgDeg: 4, Communities: 6,
			TopShare: 0.4, LeafFrac: 0.3, Seed: 81}),
		gen.SocialLike(gen.SocialParams{N: 250, AvgDeg: 4, Communities: 6,
			TopShare: 0.4, LeafFrac: 0.3, Directed: true, Reciprocity: 0.4, Seed: 82}),
		gen.RoadLike(gen.RoadParams{Rows: 8, Cols: 8, DeleteFrac: 0.15,
			SpurFrac: 0.2, SpurLen: 2, Seed: 83}),
	}
	for gi, g := range graphs {
		d, err := Decompose(g, Options{Threshold: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range d.Subgraphs {
			inSG := make(map[graph.V]bool, sg.NumVerts())
			for _, v := range sg.Verts {
				inSG[v] = true
			}
			for _, la := range sg.Arts {
				a := sg.Verts[la]
				alpha, beta := definitionAlphaBeta(g, a, inSG)
				if sg.Alpha[la] != alpha {
					t.Fatalf("graph %d sg %d AP %d: alpha %v, definition %v",
						gi, sg.ID, a, sg.Alpha[la], alpha)
				}
				if sg.Beta[la] != beta {
					t.Fatalf("graph %d sg %d AP %d: beta %v, definition %v",
						gi, sg.ID, a, sg.Beta[la], beta)
				}
			}
		}
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
