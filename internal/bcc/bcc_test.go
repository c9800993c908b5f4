package bcc

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteArticulation decides articulation by vertex removal: v is an
// articulation point iff deleting it increases the number of connected
// components among the remaining vertices of its component.
func bruteArticulation(g *graph.Graph, v graph.V) bool {
	und := g.Undirected()
	n := und.NumVertices()
	if und.OutDegree(v) < 2 {
		return false
	}
	// Count components among vertices != v before and after.
	countComponents := func(skip graph.V) int {
		seen := make([]bool, n)
		comps := 0
		var stack []graph.V
		for s := graph.V(0); int(s) < n; s++ {
			if seen[s] || s == skip {
				continue
			}
			comps++
			stack = append(stack[:0], s)
			seen[s] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range und.Out(u) {
					if w == skip || seen[w] {
						continue
					}
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return comps
	}
	// Removing v turns its component into k pieces; v is an articulation
	// point iff k >= 2, i.e. the component count strictly rises.
	return countComponents(v) > countComponents(-1)
}

func apSet(g *graph.Graph) map[graph.V]bool {
	res := Find(g)
	out := map[graph.V]bool{}
	for _, v := range res.ArticulationPoints() {
		out[v] = true
	}
	return out
}

// checkBlocks asserts that res is the biconnected decomposition of g's
// undirected view, from the vertex form alone and against brute-force
// oracles that never run a DFS low-link:
//
//   - Blocks is the ascending inverse of Block (v ∈ Block(b) exactly when
//     b ∈ Blocks(v)), and a vertex lies in several blocks iff it is an
//     articulation point;
//   - two blocks share at most one vertex, and every edge's endpoints share
//     exactly one block, which EdgeBlock names;
//   - every block is an edge or induces a connected sub-graph that stays
//     connected when any one of its vertices is deleted;
//   - blocks are maximal: the block/articulation-point incidence graph is a
//     forest with one tree per non-trivial component (a block split in two
//     would close a cycle in it), and Σ(|block|−1) counts every non-isolated
//     vertex but one per component.
func checkBlocks(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	und := g.Undirected()
	n := und.NumVertices()
	nb := res.NumBlocks()

	member := make([]map[graph.V]bool, nb)
	seenIn := make([][]int32, n)
	sizeSum := 0
	for b := int32(0); int(b) < nb; b++ {
		verts := res.Block(b)
		if len(verts) < 2 {
			t.Fatalf("block %d has %d vertices", b, len(verts))
		}
		member[b] = map[graph.V]bool{}
		for _, v := range verts {
			if member[b][v] {
				t.Fatalf("block %d lists vertex %d twice", b, v)
			}
			member[b][v] = true
			seenIn[v] = append(seenIn[v], b)
		}
		sizeSum += len(verts) - 1
	}
	incidences, aps := 0, 0
	for v := 0; v < n; v++ {
		blocks := res.Blocks(graph.V(v))
		if len(seenIn[v]) != len(blocks) {
			t.Fatalf("vertex %d: Blocks %v, Block says %v", v, blocks, seenIn[v])
		}
		for i, b := range seenIn[v] {
			if blocks[i] != b {
				t.Fatalf("vertex %d: Blocks %v, want ascending %v", v, blocks, seenIn[v])
			}
		}
		if (len(seenIn[v]) > 1) != res.IsArticulation[v] {
			t.Fatalf("vertex %d: in %d blocks, articulation=%v", v, len(seenIn[v]), res.IsArticulation[v])
		}
		if res.IsArticulation[v] {
			aps++
			incidences += len(seenIn[v])
		}
		if (len(seenIn[v]) == 0) != (und.OutDegree(graph.V(v)) == 0) {
			t.Fatalf("vertex %d: degree %d but in %d blocks", v, und.OutDegree(graph.V(v)), len(seenIn[v]))
		}
	}

	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			shared := 0
			for v := range member[a] {
				if member[b][v] {
					shared++
				}
			}
			if shared > 1 {
				t.Fatalf("blocks %d and %d share %d vertices", a, b, shared)
			}
		}
	}
	for u := graph.V(0); int(u) < n; u++ {
		for _, w := range und.Out(u) {
			common := int32(-1)
			for _, b := range seenIn[u] {
				if member[b][w] {
					if common >= 0 {
						t.Fatalf("edge %d-%d lies in blocks %d and %d", u, w, common, b)
					}
					common = b
				}
			}
			if common < 0 {
				t.Fatalf("edge %d-%d lies in no block", u, w)
			}
			if got := res.EdgeBlock(u, w); got != common {
				t.Fatalf("EdgeBlock(%d,%d) = %d, want %d", u, w, got, common)
			}
		}
	}

	// pieces counts the connected pieces of the sub-graph induced on `in`
	// minus the vertex skip (-1 deletes nothing).
	pieces := func(in map[graph.V]bool, skip graph.V) int {
		seen := map[graph.V]bool{}
		comps := 0
		for s := range in {
			if s == skip || seen[s] {
				continue
			}
			comps++
			seen[s] = true
			stack := []graph.V{s}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range und.Out(u) {
					if in[w] && w != skip && !seen[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		return comps
	}
	for b := int32(0); int(b) < nb; b++ {
		verts := res.Block(b)
		if len(verts) == 2 {
			if !und.HasArc(verts[0], verts[1]) {
				t.Fatalf("2-vertex block %d %v is not an edge", b, verts)
			}
			continue
		}
		for _, skip := range append([]graph.V{-1}, verts...) {
			if c := pieces(member[b], skip); c != 1 {
				t.Fatalf("block %d falls into %d pieces without vertex %d", b, c, skip)
			}
		}
	}

	all := map[graph.V]bool{}
	for v := 0; v < n; v++ {
		if und.OutDegree(graph.V(v)) > 0 {
			all[graph.V(v)] = true
		}
	}
	comps := pieces(all, -1)
	if nb+aps-incidences != comps {
		t.Fatalf("block-cut incidence graph is not a forest: %d blocks + %d APs - %d incidences != %d components",
			nb, aps, incidences, comps)
	}
	if sizeSum != len(all)-comps {
		t.Fatalf("sum(|block|-1) = %d, want %d non-isolated vertices - %d components", sizeSum, len(all), comps)
	}
}

func TestPaperFigure3Graph(t *testing.T) {
	// The 13-vertex directed graph of paper Figure 3(a); its undirected view
	// has articulation points 2, 3 and 6 (§2.2). Edges transcribed from the
	// figure's structure: leaves 0,1 -> 2; core 2,4,5 around 3 and 6;
	// 6 -> {7,8,9} chain-free fan; 3 -> {12,10} with 10-12 linked.
	edges := []graph.Edge{
		{From: 0, To: 2}, {From: 1, To: 2},
		{From: 2, To: 5}, {From: 2, To: 4},
		{From: 5, To: 3}, {From: 5, To: 6}, {From: 4, To: 3}, {From: 4, To: 6},
		{From: 3, To: 12}, {From: 3, To: 10}, {From: 10, To: 12},
		{From: 6, To: 7}, {From: 6, To: 8}, {From: 7, To: 9}, {From: 8, To: 9},
	}
	g := graph.NewFromEdges(13, edges, true)
	aps := apSet(g)
	for _, want := range []graph.V{2, 3, 6} {
		if !aps[want] {
			t.Fatalf("vertex %d should be an articulation point; got %v", want, aps)
		}
	}
	if len(aps) != 3 {
		t.Fatalf("articulation points = %v, want exactly {2,3,6}", aps)
	}
}

func TestPathAllInteriorAPs(t *testing.T) {
	g := gen.Path(10)
	res := Find(g)
	for v := 1; v < 9; v++ {
		if !res.IsArticulation[v] {
			t.Fatalf("interior path vertex %d not marked", v)
		}
	}
	if res.IsArticulation[0] || res.IsArticulation[9] {
		t.Fatal("path endpoints wrongly marked")
	}
	if res.NumBlocks() != 9 {
		t.Fatalf("path blocks = %d, want 9 (each edge a bridge)", res.NumBlocks())
	}
}

func TestCycleNoAPs(t *testing.T) {
	res := Find(gen.Cycle(12))
	if len(res.ArticulationPoints()) != 0 {
		t.Fatalf("cycle has APs: %v", res.ArticulationPoints())
	}
	if res.NumBlocks() != 1 {
		t.Fatalf("cycle blocks = %d, want 1", res.NumBlocks())
	}
	if len(res.Block(0)) != 12 {
		t.Fatal("cycle block contents wrong")
	}
	checkBlocks(t, gen.Cycle(12), res)
}

func TestStarHubOnly(t *testing.T) {
	res := Find(gen.Star(8))
	aps := res.ArticulationPoints()
	if len(aps) != 1 || aps[0] != 0 {
		t.Fatalf("star APs = %v, want [0]", aps)
	}
	if res.NumBlocks() != 7 {
		t.Fatalf("star blocks = %d, want 7", res.NumBlocks())
	}
	if len(res.Blocks(0)) != 7 {
		t.Fatalf("hub in %d blocks, want 7", len(res.Blocks(0)))
	}
	if len(res.Blocks(3)) != 1 {
		t.Fatal("leaf should be in exactly one block")
	}
}

func TestCompleteGraphOneBlock(t *testing.T) {
	res := Find(gen.Complete(7))
	if res.NumBlocks() != 1 || len(res.ArticulationPoints()) != 0 {
		t.Fatalf("K7: blocks=%d aps=%v", res.NumBlocks(), res.ArticulationPoints())
	}
}

func TestLollipop(t *testing.T) {
	res := Find(gen.Lollipop(5, 3))
	// Blocks: K5 + 3 bridges; APs: clique vertex 0 and the 2 interior path vertices.
	if res.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", res.NumBlocks())
	}
	aps := res.ArticulationPoints()
	if len(aps) != 3 {
		t.Fatalf("APs = %v, want 3 of them", aps)
	}
}

func TestDisconnected(t *testing.T) {
	// Two triangles sharing nothing + isolated vertex.
	g := graph.NewFromEdges(7, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
	}, false)
	res := Find(g)
	if res.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", res.NumBlocks())
	}
	if len(res.ArticulationPoints()) != 0 {
		t.Fatal("no APs expected")
	}
	if len(res.Blocks(6)) != 0 {
		t.Fatal("isolated vertex should be in no block")
	}
}

// TestEdgesPartitioned: with blocks kept as vertex sets, "the blocks
// partition the edges" reads "every edge's endpoints share exactly one
// block"; checkBlocks asserts that and the rest of the block structure.
func TestEdgesPartitioned(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 600, AvgDeg: 5, Communities: 8, TopShare: 0.5, LeafFrac: 0.3, Seed: 21})
	checkBlocks(t, g, Find(g))
}

// TestVertexBlocksConsistency checks the two flat membership lists against
// each other by brute force: v ∈ Block(b) exactly when b ∈ Blocks(v), every
// Blocks(v) ascends, several blocks mean an articulation point, and appending
// to a returned list never writes into the next vertex's or block's.
func TestVertexBlocksConsistency(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Caveman(5, 4, false),
		graph.NewFromEdges(9, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3}, {From: 5, To: 6}}, false),
		gen.ErdosRenyi(40, 50, true, 9),
	} {
		res := Find(g)
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			inBlocks := map[int32]bool{}
			for b := int32(0); int(b) < res.NumBlocks(); b++ {
				for _, u := range res.Block(b) {
					if u == v {
						inBlocks[b] = true
					}
				}
			}
			blocks := res.Blocks(v)
			if len(inBlocks) != len(blocks) {
				t.Fatalf("vertex %d: Blocks len %d, actual %d", v, len(blocks), len(inBlocks))
			}
			for i, b := range blocks {
				if !inBlocks[b] {
					t.Fatalf("vertex %d: stale block id %d", v, b)
				}
				if i > 0 && blocks[i-1] >= b {
					t.Fatalf("vertex %d: Blocks %v not ascending", v, blocks)
				}
			}
			if (len(blocks) > 1) != res.IsArticulation[v] {
				t.Fatalf("vertex %d: blocks=%d articulation=%v", v, len(blocks), res.IsArticulation[v])
			}
		}
		for v := graph.V(0); int(v)+1 < g.NumVertices(); v++ {
			next := slices.Clone(res.Blocks(v + 1))
			_ = append(res.Blocks(v), -7)
			if !slices.Equal(res.Blocks(v+1), next) {
				t.Fatalf("appending to Blocks(%d) rewrote Blocks(%d): %v, was %v", v, v+1, res.Blocks(v+1), next)
			}
		}
		for b := int32(0); int(b)+1 < res.NumBlocks(); b++ {
			next := slices.Clone(res.Block(b + 1))
			_ = append(res.Block(b), -7)
			if !slices.Equal(res.Block(b+1), next) {
				t.Fatalf("appending to Block(%d) rewrote Block(%d)", b, b+1)
			}
		}
		checkBlocks(t, g, res)
	}
}

func TestAgainstBruteForce(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Tree(40, 1),
		gen.ErdosRenyi(30, 45, false, 2),
		gen.ErdosRenyi(30, 60, false, 3),
		gen.SocialLike(gen.SocialParams{N: 60, AvgDeg: 4, Communities: 4, TopShare: 0.5, LeafFrac: 0.2, Seed: 4}),
		gen.RoadLike(gen.RoadParams{Rows: 6, Cols: 6, DeleteFrac: 0.15, SpurFrac: 0.2, SpurLen: 2, Seed: 5}),
		gen.ErdosRenyi(25, 40, true, 6), // directed: undirected-view APs
	}
	for gi, g := range graphs {
		aps := apSet(g)
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			want := bruteArticulation(g, v)
			if aps[v] != want {
				t.Fatalf("graph %d vertex %d: Find says %v, brute force says %v", gi, v, aps[v], want)
			}
		}
		checkBlocks(t, g, Find(g))
	}
}

// Property: on random graphs the articulation set matches brute force and
// the blocks pass checkBlocks.
func TestQuickBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(24, 30, false, seed)
		aps := apSet(g)
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			if aps[v] != bruteArticulation(g, v) {
				return false
			}
		}
		checkBlocks(t, g, Find(g))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCountArticulationPoints(t *testing.T) {
	aps, deg1 := CountArticulationPoints(gen.Star(10))
	if aps != 1 || deg1 != 9 {
		t.Fatalf("aps=%d deg1=%d", aps, deg1)
	}
}

func TestBlockVertsSortedStable(t *testing.T) {
	// Determinism: two runs produce identical output.
	g := gen.SocialLike(gen.SocialParams{N: 200, AvgDeg: 4, Communities: 5, TopShare: 0.4, LeafFrac: 0.25, Seed: 8})
	a, b := Find(g), Find(g)
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatal("nondeterministic block count")
	}
	for i := int32(0); int(i) < a.NumBlocks(); i++ {
		av := append([]graph.V{}, a.Block(i)...)
		bv := append([]graph.V{}, b.Block(i)...)
		sort.Slice(av, func(x, y int) bool { return av[x] < av[y] })
		sort.Slice(bv, func(x, y int) bool { return bv[x] < bv[y] })
		if len(av) != len(bv) {
			t.Fatal("nondeterministic block contents")
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatal("nondeterministic block contents")
			}
		}
	}
}

// TestMillionVertexPath is ROADMAP 5(v): a path is the deepest DFS a graph
// of its size allows, so it pins that Find stays iterative, and its answer is
// known in closed form.
func TestMillionVertexPath(t *testing.T) {
	const n = 1_000_000
	offs := make([]int64, n+1)
	adj := make([]graph.V, 0, 2*(n-1))
	for v := 0; v < n; v++ {
		if v > 0 {
			adj = append(adj, graph.V(v-1))
		}
		if v < n-1 {
			adj = append(adj, graph.V(v+1))
		}
		offs[v+1] = int64(len(adj))
	}
	g, err := graph.NewFromCSR(n, offs, adj, false)
	if err != nil {
		t.Fatal(err)
	}
	res := Find(g)
	if res.NumBlocks() != n-1 {
		t.Fatalf("blocks = %d, want %d", res.NumBlocks(), n-1)
	}
	if aps := len(res.ArticulationPoints()); aps != n-2 {
		t.Fatalf("articulation points = %d, want %d", aps, n-2)
	}
	if res.IsArticulation[0] || res.IsArticulation[n-1] {
		t.Fatal("path endpoints marked as articulation points")
	}
}
