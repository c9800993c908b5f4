package decompose

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// abScratch is the reusable state of alphaBetaBFS.
type abScratch struct {
	inSG    []int32 // sub-graph membership, epoch-marked
	visited []int32 // BFS visited, epoch-marked
	sgEpoch int32
	bfsEp   int32
	queue   []graph.V
}

// count runs a BFS from a along next (a graph's Out, or its In for the reverse
// BFS), never entering vertices of the current sub-graph other than a, and
// returns the number of vertices reached beyond a.
func (sc *abScratch) count(next func(graph.V) []graph.V, a graph.V) float64 {
	sc.bfsEp++
	ep := sc.bfsEp
	sc.visited[a] = ep
	sc.queue = append(sc.queue[:0], a)
	var reached int64
	for len(sc.queue) > 0 {
		u := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		for _, v := range next(u) {
			if sc.visited[v] == ep {
				continue
			}
			if sc.inSG[v] == sc.sgEpoch && v != a {
				continue
			}
			sc.visited[v] = ep
			sc.queue = append(sc.queue, v)
			reached++
		}
	}
	return float64(reached)
}

// alphaBetaBFS is the oracle the composition is held to: α and β per the
// paper's operational definition (§4), a BFS from each boundary articulation
// point a that never re-enters the sub-graph counting "the number of vertices
// which a can reach without passing through SGi", and a reverse BFS counting
// β. It walks d.G and reads nothing of a sub-graph but its vertex list and
// boundary APs — not the CSRs, the folds or the forest.
func alphaBetaBFS(d *Decomposition) {
	g := d.G
	n := g.NumVertices()
	g.EnsureTranspose()
	sc := &abScratch{inSG: make([]int32, n), visited: make([]int32, n)}
	for _, sg := range d.Subgraphs {
		sc.sgEpoch++
		for _, v := range sg.Verts {
			sc.inSG[v] = sc.sgEpoch
		}
		for _, la := range sg.Arts {
			a := sg.Verts[la]
			sg.Alpha[la] = sc.count(g.Out, a)
			sg.Beta[la] = sg.Alpha[la]
			if g.Directed() {
				sg.Beta[la] = sc.count(g.In, a)
			}
		}
	}
}

// abSnapshot returns α then β of every boundary AP, sub-graph by sub-graph.
func abSnapshot(d *Decomposition) []float64 {
	var out []float64
	for _, sg := range d.Subgraphs {
		for _, la := range sg.Arts {
			out = append(out, sg.Alpha[la], sg.Beta[la])
		}
	}
	return out
}

// recompose wipes every α/β of d and has the composition restore them.
func recompose(d *Decomposition) []float64 {
	for _, sg := range d.Subgraphs {
		clear(sg.Alpha)
		clear(sg.Beta)
	}
	d.composeAlphaBeta()
	return abSnapshot(d)
}

// checkDefinition holds the α and β sg stores to definitionAlphaBeta's reach
// counts over g with sg's other vertices blocked.
func checkDefinition(t *testing.T, label string, g *graph.Graph, sg *Subgraph) {
	t.Helper()
	inSG := make(map[graph.V]bool, sg.NumVerts())
	for _, v := range sg.Verts {
		inSG[v] = true
	}
	for _, la := range sg.Arts {
		a := sg.Verts[la]
		alpha, beta := definitionAlphaBeta(g, a, inSG)
		if sg.Alpha[la] != alpha || sg.Beta[la] != beta {
			t.Fatalf("%s sg %d AP %d: α %v β %v, definition %v and %v",
				label, sg.ID, a, sg.Alpha[la], sg.Beta[la], alpha, beta)
		}
	}
}

// TestComposeMatchesDefinition holds the composition to the paper's
// definition three ways — its own result, the per-AP BFS oracle, and
// definitionAlphaBeta's reach counts with the sub-graph blocked — on every build of
// forEachBuild, folded and with the fold disabled (whole rows). The shapes the
// composition has a branch for must have occurred.
func TestComposeMatchesDefinition(t *testing.T) {
	var wide, manySCC int
	var scc graph.SCC
	check := func(label string, d *Decomposition) {
		t.Helper()
		g := d.G
		for _, sg := range d.Subgraphs {
			if len(sg.Arts) > 64 {
				wide++
			}
			labels := make([]int32, sg.NumVerts())
			scc.Label(sg.offs, sg.adj, labels, make([]int32, sg.NumVerts()))
			swept := map[int32]bool{}
			for _, r := range sg.Roots {
				swept[labels[r]] = true
			}
			if g.Directed() && len(swept) > 1 {
				manySCC++
			}
		}
		stored := abSnapshot(d)
		if composed := recompose(d); !slices.Equal(stored, composed) {
			t.Fatalf("%s: Decompose stored %v, composing again gives %v", label, stored, composed)
		}
		alphaBetaBFS(d)
		if oracle := abSnapshot(d); !slices.Equal(stored, oracle) {
			t.Fatalf("%s: composition %v, BFS oracle %v", label, stored, oracle)
		}
		for _, sg := range d.Subgraphs {
			checkDefinition(t, label, g, sg)
		}
	}
	forEachBuild(t, func(label string, g *graph.Graph, th int, d *Decomposition) {
		check(label, d)
		check(label+" unfolded", mustDecompose(t, g, Options{Threshold: th, DisableGamma: true}))
	})
	if wide == 0 || manySCC == 0 {
		t.Fatalf("%d sub-graphs with > 64 boundary APs, %d directed sub-graphs of several components: a case went untested",
			wide, manySCC)
	}
}

// TestAlphaMatchesCutVertexCount checks α on the undirected families with
// nothing of the decomposition but its vertex sets (SNIPPETS.md snippet 1):
// delete the boundary AP, and α is the size of the components the AP touched
// that hold no vertex of its sub-graph.
func TestAlphaMatchesCutVertexCount(t *testing.T) {
	for name, g := range buildFamilies() {
		if g.Directed() {
			continue
		}
		for _, th := range []int{1, 8, 64} {
			d := mustDecompose(t, g, Options{Threshold: th})
			for _, sg := range d.Subgraphs {
				for _, la := range sg.Arts {
					a := sg.Verts[la]
					comp := make([]int32, g.NumVertices()) // components of g minus a, numbered from 1
					var sizes []float64
					for _, s := range g.Out(a) {
						if comp[s] != 0 {
							continue
						}
						id := int32(len(sizes) + 1)
						comp[s] = id
						stack := []graph.V{s}
						size := 0.0
						for len(stack) > 0 {
							u := stack[len(stack)-1]
							stack = stack[:len(stack)-1]
							size++
							for _, w := range g.Out(u) {
								if w != a && comp[w] == 0 {
									comp[w] = id
									stack = append(stack, w)
								}
							}
						}
						sizes = append(sizes, size)
					}
					for _, v := range sg.Verts {
						if v != a {
							sizes[comp[v]-1] = 0
						}
					}
					var want float64
					for _, s := range sizes {
						want += s
					}
					if sg.Alpha[la] != want || sg.Beta[la] != want {
						t.Fatalf("%s threshold %d sg %d AP %d: α %v β %v, the cut leaves %v outside",
							name, th, sg.ID, a, sg.Alpha[la], sg.Beta[la], want)
					}
				}
			}
		}
	}
}

// TestComposeDeepAndWide pins the shapes a recursive or a per-pair
// formulation breaks on: a one-way path of 10⁵ vertices hung off the hub of a
// 300-blade windmill of directed triangles. At a huge threshold the path is
// one sub-graph whose labelling is 10⁵ frames deep and the hub one AP node of
// 301 incidences; at threshold 1 the path is a chain of 10⁵ two-vertex
// sub-graphs, so the forest is that deep. The hub's α and β have closed forms;
// a sample of the rest is held to the definition.
func TestComposeDeepAndWide(t *testing.T) {
	const blades, tail = 300, 100_000
	var edges []graph.Edge
	for i := int32(0); i < blades; i++ {
		a, b := 1+2*i, 2+2*i
		edges = append(edges, graph.Edge{From: 0, To: a}, graph.Edge{From: a, To: b}, graph.Edge{From: b, To: 0})
	}
	prev := int32(0)
	for v := int32(2*blades + 1); v <= 2*blades+tail; v++ {
		edges = append(edges, graph.Edge{From: prev, To: v})
		prev = v
	}
	g := graph.NewFromEdges(2*blades+tail+1, edges, true)

	d := mustDecompose(t, g, Options{Threshold: 1 << 30})
	if len(d.Subgraphs) != blades+1 || d.NumArticulation != 1 {
		t.Fatalf("%d sub-graphs, %d boundary APs; want %d and 1", len(d.Subgraphs), d.NumArticulation, blades+1)
	}
	for _, sg := range d.Subgraphs {
		hub := sg.LocalID(0)
		alpha, beta := float64(tail+2*(blades-1)), float64(2*(blades-1))
		if sg.NumVerts() > 3 {
			alpha, beta = 2*blades, 2*blades
		}
		if sg.Alpha[hub] != alpha || sg.Beta[hub] != beta {
			t.Fatalf("sub-graph of %d vertices: hub α %v β %v, want %v and %v", sg.NumVerts(), sg.Alpha[hub], sg.Beta[hub], alpha, beta)
		}
	}

	d = mustDecompose(t, g, Options{Threshold: 1})
	if len(d.Subgraphs) < tail {
		t.Fatalf("%d sub-graphs at threshold 1, want a chain of about %d", len(d.Subgraphs), tail)
	}
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		checkDefinition(t, "chain", g, d.Subgraphs[rng.Intn(len(d.Subgraphs))])
	}
}

// serveSized is the benchmark's serve input (bench/workloads.go) at seed 1.
func serveSized() *graph.Graph {
	return gen.SocialLike(gen.SocialParams{N: 2000, AvgDeg: 10, Communities: 134,
		TopShare: 0.46, LeafFrac: 0.53, Seed: 1})
}

// BenchmarkAlphaBeta times the two formulations of α/β on the serve-sized
// undirected input: the composition (here the connected closed form) and the
// per-AP BFS of the paper.
func BenchmarkAlphaBeta(b *testing.B) {
	d, err := Decompose(serveSized(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for name, run := range map[string]func(){
		"composition": d.composeAlphaBeta,
		"bfs-oracle":  func() { alphaBetaBFS(d) },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
