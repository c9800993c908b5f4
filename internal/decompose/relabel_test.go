package decompose

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// withStar returns g with a star planted on it: vertex hub gains an edge
// (directed: an arc out, and for every third spoke one back) to every vertex
// whose id is a multiple of every, so its degree is several times hubRatio ×
// the mean while its neighbours keep the edges they had — they stay in the
// swept graph, and the ones that were boundary APs still are.
func withStar(g *graph.Graph, hub graph.V, every int) *graph.Graph {
	edges := g.Edges()
	for v := graph.V(0); int(v) < g.NumVertices(); v += graph.V(every) {
		if v == hub {
			continue
		}
		edges = append(edges, graph.Edge{From: hub, To: v})
		if g.Directed() && v%3 == 0 {
			edges = append(edges, graph.Edge{From: v, To: hub})
		}
	}
	return graph.NewFromEdges(g.NumVertices(), edges, g.Directed())
}

// relabelShapes are small random graphs of the kinds a decomposition meets —
// blocks hung on articulation points, γ leaves, directed reachability. The
// uniform ones have no hub until withStar gives them one; the community
// graphs' larger sub-graphs have their own.
func relabelShapes() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er": gen.ErdosRenyi(300, 900, false, 7),
		"social": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 6, Communities: 8, TopShare: 0.4, LeafFrac: 0.3, Seed: 5}),
		"erDir": gen.ErdosRenyi(300, 1200, true, 8),
		"socialDir": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 6, Communities: 8, TopShare: 0.4, LeafFrac: 0.3,
			Directed: true, Reciprocity: 0.4, Seed: 6}),
	}
}

// subgraphHasHub applies the bound to the finished sub-graph's rows, not to
// the row sizes and fold counts hasHub goes by before any row exists.
func subgraphHasHub(sg *Subgraph) bool {
	var most int
	for _, l := range sg.Roots {
		most = max(most, len(sg.Out(l)))
	}
	return isHub(int64(most), sg.NumArcs(), len(sg.Roots))
}

// TestRelabelIsIsomorphism: whatever order relabel puts a sub-graph's local
// ids in, the sub-graph is the reference build's under its Verts map
// (matchOracle: arcs, weights, IsArt, γ, fold targets, and Arts and Roots as
// sequences of global ids), every row ascends, the folded ids are the tail,
// LocalID inverts Verts, and a second build of the same edge set is
// SweepEqual to the first. The layout follows the definition of a hub and
// nothing else: a sub-graph is relabelled exactly when it has one, and each
// kind — undirected, directed, weighted, γ off, with a folded tail, with
// boundary APs — has a relabelled sub-graph as well as ones that are not.
func TestRelabelIsIsomorphism(t *testing.T) {
	relabelled := map[string]int{}
	for name, base := range relabelShapes() {
		for _, star := range []bool{false, true} {
			g := base
			if star {
				g = withStar(base, 3, 2)
			}
			for _, weighted := range []bool{false, true} {
				if weighted {
					g = gen.WithRandomWeights(g, 9, 11)
				}
				for _, opt := range []Options{{Threshold: 1}, {Threshold: 8}, {Threshold: 64}, {Threshold: 64, DisableGamma: true}} {
					label := fmt.Sprintf("%s star=%v weighted=%v %+v", name, star, weighted, opt)
					d := mustDecompose(t, g, opt)
					again := mustDecompose(t, g, opt)
					want := oracleBuild(g, opt.Threshold)
					if len(d.Subgraphs) != len(want) {
						t.Fatalf("%s: %d sub-graphs, oracle has %d", label, len(d.Subgraphs), len(want))
					}
					checkRowsAscending(t, label, d)
					for si, sg := range d.Subgraphs {
						sgLabel := fmt.Sprintf("%s sg %d", label, si)
						matchOracle(t, sgLabel, g, opt.DisableGamma, sg, want[si])
						if !sg.SweepEqual(again.Subgraphs[si]) {
							t.Fatalf("%s: two builds of one edge set differ", sgLabel)
						}
						if sg.Relabelled() != subgraphHasHub(sg) {
							t.Fatalf("%s: relabelled %v, has a hub %v", sgLabel, sg.Relabelled(), subgraphHasHub(sg))
						}
						for l, v := range sg.Verts {
							if got := sg.LocalID(v); got != int32(l) {
								t.Fatalf("%s: LocalID(Verts[%d]) = %d", sgLabel, l, got)
							}
							if sg.Relabelled() && (sg.FoldedInto(int32(l)) >= 0) != (l >= len(sg.Roots)) {
								t.Fatalf("%s: local id %d of %d swept: folded %v, so the folded ids are not the tail",
									sgLabel, l, len(sg.Roots), sg.FoldedInto(int32(l)) >= 0)
							}
						}
						for v := graph.V(0); int(v) < g.NumVertices(); v++ {
							if l := sg.LocalID(v); l >= 0 && sg.Verts[l] != v {
								t.Fatalf("%s: LocalID(%d) = %d, which is vertex %d", sgLabel, v, l, sg.Verts[l])
							}
						}
						if !sg.Relabelled() {
							relabelled["not"]++
						} else {
							kind := "undirected"
							if g.Directed() {
								kind = "directed"
							}
							relabelled[kind]++
							if weighted {
								relabelled["weighted"]++
							}
							if opt.DisableGamma {
								relabelled["gamma off"]++
							} else if len(sg.Roots) < sg.NumVerts() {
								relabelled["with a folded tail"]++
							}
							if len(sg.Arts) > 0 {
								relabelled["with boundary APs"]++
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"not", "undirected", "directed", "weighted", "gamma off", "with a folded tail", "with boundary APs"} {
		if relabelled[kind] == 0 {
			t.Fatalf("no sub-graph relabelled: %s; that case went untested (%v)", kind, relabelled)
		}
	}
}

// TestRelabelOrder spells the rule out on a graph small enough to read: hub 0
// with forty spokes 1..40 closed into a ring, vertex 41 on ring vertices 5 and
// 6, and two leaves, 42 on 41 and 43 on 9, which fold. The swept degrees are
// 40 at the hub, 4 at 5 and 6, 3 on the rest of the ring and 2 at 41: mean
// 164/42, and only the hub has eight times that. The order is the hub, its
// row, then 41, reached from the ring, and the folded pair last — each run in
// input order, which the test makes a shuffle of the ids above.
func TestRelabelOrder(t *testing.T) {
	const n = 44
	rename := func(v graph.V) graph.V { return (v*7 + 3) % n }
	var edges []graph.Edge
	edge := func(u, v graph.V) { edges = append(edges, graph.Edge{From: rename(u), To: rename(v)}) }
	ring := make([]graph.V, 40)
	for v := graph.V(1); v <= 40; v++ {
		edge(0, v)
		edge(v, v%40+1)
		ring[v-1] = rename(v)
	}
	edge(5, 41)
	edge(6, 41)
	edge(41, 42)
	edge(9, 43)
	d := mustDecompose(t, graph.NewFromEdges(n, edges, false), Options{})
	if len(d.Subgraphs) != 1 || !d.Subgraphs[0].Relabelled() {
		t.Fatalf("%d sub-graphs, relabelled %v; want one, relabelled", len(d.Subgraphs), d.Subgraphs[0].Relabelled())
	}
	sg := d.Subgraphs[0]
	slices.Sort(ring)
	want := append(append([]graph.V{rename(0)}, ring...), rename(41), min(rename(42), rename(43)), max(rename(42), rename(43)))
	if !slices.Equal(sg.Verts, want) {
		t.Fatalf("Verts %v, want %v", sg.Verts, want)
	}
	// Roots keeps global-id order whatever the layout.
	for k := 1; k < len(sg.Roots); k++ {
		if sg.Verts[sg.Roots[k-1]] >= sg.Verts[sg.Roots[k]] {
			t.Fatalf("Roots names the vertices %d, %d out of global-id order", sg.Verts[sg.Roots[k-1]], sg.Verts[sg.Roots[k]])
		}
	}
}

// TestNoHubKeepsInputOrder: a lattice, a ring and the road stand-in have no
// hub, and their sub-graphs are built as they always were — Verts ascending,
// every row the input row relabelled in place (less the folded vertices), so
// already in the order a well-laid-out input chose.
func TestNoHubKeepsInputOrder(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"lattice": gen.Grid2D(40, 40),
		"ring":    gen.Cycle(500),
		"road":    gen.RoadLike(gen.RoadParams{Rows: 30, Cols: 30, DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: 3}),
	} {
		d := mustDecompose(t, g, Options{})
		for si, sg := range d.Subgraphs {
			if sg.Relabelled() {
				t.Fatalf("%s sg %d: relabelled, but it has no hub", name, si)
			}
			if !slices.IsSorted(sg.Verts) {
				t.Fatalf("%s sg %d: Verts is not ascending: %v", name, si, sg.Verts)
			}
			for l, v := range sg.Verts {
				var want []int32
				for _, w := range g.Out(v) {
					if lw := sg.LocalID(w); lw >= 0 && sg.FoldedInto(lw) < 0 && sg.FoldedInto(int32(l)) < 0 {
						want = append(want, lw)
					}
				}
				if !slices.Equal(sg.Out(int32(l)), want) {
					t.Fatalf("%s sg %d: row of vertex %d is %v, the input row relabelled is %v", name, si, v, sg.Out(int32(l)), want)
				}
			}
		}
	}
}
