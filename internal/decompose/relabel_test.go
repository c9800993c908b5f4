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

// TestNoHubKeepsIdOrder: a lattice, a ring and the road stand-in have no hub,
// and their sub-graphs keep global-id order within each of the two runs of
// local ids — the swept vertices, then the folded ones — and every row is the
// input row relabelled in place (less the folded vertices), so already in the
// order a well-laid-out input chose. The road stand-in's spurs fold, so its
// sub-graphs have folded vertices to move behind the swept ones.
func TestNoHubKeepsIdOrder(t *testing.T) {
	moved := 0
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
			ns := len(sg.Roots)
			if !slices.IsSorted(sg.Verts[:ns]) || !slices.IsSorted(sg.Verts[ns:]) {
				t.Fatalf("%s sg %d: the swept or the folded run of Verts is not ascending: %v", name, si, sg.Verts)
			}
			if !slices.IsSorted(sg.Verts) {
				moved++
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
	if moved == 0 {
		t.Fatal("no sub-graph had a folded vertex below a swept one: the reordering went untested")
	}
}

// TestSweptVerticesArePrefix pins the one layout every sub-graph has, on
// every build of forEachBuild and of the star-planted relabelShapes (whose
// undirected hubs keep their leaves), with γ on and off: Roots is a
// permutation of [0, len(Roots)), the folded vertices are exactly the ids from
// len(Roots) on, no row names one, and without a hub both runs of Verts
// ascend. The builds must include sub-graphs with and without a hub, directed
// and undirected, with folded vertices and with none.
func TestSweptVerticesArePrefix(t *testing.T) {
	seen := map[string]int{}
	check := func(label string, g *graph.Graph, threshold int, d *Decomposition) {
		for _, gammaOff := range []bool{false, true} {
			if gammaOff {
				d = mustDecompose(t, g, Options{Threshold: threshold, DisableGamma: true})
			}
			for si, sg := range d.Subgraphs {
				sgLabel := fmt.Sprintf("%s γ off %v sg %d", label, gammaOff, si)
				ns := len(sg.Roots)
				roots := slices.Sorted(slices.Values(sg.Roots))
				for k, l := range roots {
					if l != int32(k) {
						t.Fatalf("%s: Roots %v is not a permutation of [0, %d)", sgLabel, sg.Roots, ns)
					}
				}
				for l := int32(0); int(l) < sg.NumVerts(); l++ {
					if folded := sg.FoldedInto(l) >= 0; folded != (int(l) >= ns) {
						t.Fatalf("%s: local id %d of %d swept: folded %v", sgLabel, l, ns, folded)
					}
					for _, w := range sg.Out(l) {
						if int(w) >= ns {
							t.Fatalf("%s: row %d names %d, past the %d swept ids", sgLabel, l, w, ns)
						}
					}
				}
				if !sg.Relabelled() && (!slices.IsSorted(sg.Verts[:ns]) || !slices.IsSorted(sg.Verts[ns:])) {
					t.Fatalf("%s: no hub, but Verts is not two ascending runs: %v", sgLabel, sg.Verts)
				}
				kind := fmt.Sprintf("hub %v directed %v γ off %v", sg.Relabelled(), g.Directed(), gammaOff)
				seen[kind]++
				if ns < sg.NumVerts() {
					seen["folded"]++
				} else {
					seen["none folded"]++
				}
			}
		}
	}
	forEachBuild(t, check)
	for name, base := range relabelShapes() {
		g := withStar(base, 3, 2)
		for _, th := range []int{1, 8, 64} {
			check(fmt.Sprintf("%s star threshold %d", name, th), g, th, mustDecompose(t, g, Options{Threshold: th}))
		}
	}
	for _, hub := range []bool{false, true} {
		for _, directed := range []bool{false, true} {
			for _, gammaOff := range []bool{false, true} {
				if kind := fmt.Sprintf("hub %v directed %v γ off %v", hub, directed, gammaOff); seen[kind] == 0 {
					t.Fatalf("no sub-graph with %s: that case went untested (%v)", kind, seen)
				}
			}
		}
	}
	if seen["folded"] == 0 || seen["none folded"] == 0 {
		t.Fatalf("the builds lack sub-graphs with or without folded vertices: %v", seen)
	}
}
