package decompose

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bcc"
	"repro/internal/gen"
	"repro/internal/graph"
)

func mustDecompose(t *testing.T, g *graph.Graph, opt Options) *Decomposition {
	t.Helper()
	d, err := Decompose(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStarCollapsesToOneSubgraph(t *testing.T) {
	g := gen.Star(10)
	d := mustDecompose(t, g, Options{})
	if len(d.Subgraphs) != 1 {
		t.Fatalf("subgraphs = %d, want 1", len(d.Subgraphs))
	}
	sg := d.Subgraphs[0]
	// All 9 leaves fold into γ(hub) and leave the swept graph with their 18
	// arcs; only the hub remains, as a root with nothing to walk.
	if sg.NumVerts() != 10 || len(sg.Roots) != 1 || sg.NumArcs() != 0 {
		t.Fatalf("top: v=%d swept=%d arcs=%d", sg.NumVerts(), len(sg.Roots), sg.NumArcs())
	}
	if len(sg.Arts) != 0 {
		t.Fatalf("star should have no boundary APs, got %d", len(sg.Arts))
	}
	hub := sg.LocalID(0)
	if sg.Gamma[hub] != 9 {
		t.Fatalf("gamma(hub) = %d, want 9", sg.Gamma[hub])
	}
	if len(sg.Roots) != 1 || sg.Roots[0] != hub {
		t.Fatalf("roots = %v, want just the hub", sg.Roots)
	}
}

func TestDisableGamma(t *testing.T) {
	g := gen.Star(10)
	d := mustDecompose(t, g, Options{DisableGamma: true})
	sg := d.Subgraphs[0]
	if len(sg.Roots) != 10 {
		t.Fatalf("roots = %d, want 10 with gamma disabled", len(sg.Roots))
	}
	for _, gm := range sg.Gamma {
		if gm != 0 {
			t.Fatal("gamma must be zero when disabled")
		}
	}
}

func TestCavemanChain(t *testing.T) {
	// Cliques 0..3 of size 5 chained by bridges 0-5, 5-10, 10-15. With
	// threshold 3 the block-cut tree (bridge b1 hangs off b0 via AP 5, not
	// off clique 1) yields five groups: the top clique absorbs bridge 0-5;
	// the two middle bridges form their own {5,10,15} group; each remaining
	// clique stands alone.
	g := gen.Caveman(4, 5, false)
	d := mustDecompose(t, g, Options{Threshold: 3})
	if len(d.Subgraphs) != 5 {
		t.Fatalf("subgraphs = %d, want 5", len(d.Subgraphs))
	}
	if d.NumArticulation != 3 {
		t.Fatalf("boundary APs = %d, want 3 (vertices 5, 10, 15)", d.NumArticulation)
	}
	// The subgraph holding vertex 6 is clique 1 = {5..9}, boundary AP 5.
	var sg1 *Subgraph
	for _, sg := range d.Subgraphs {
		if sg.LocalID(6) >= 0 {
			sg1 = sg
			break
		}
	}
	if sg1 == nil {
		t.Fatal("no subgraph holds vertex 6")
	}
	if sg1.NumVerts() != 5 {
		t.Fatalf("sg1 verts = %d, want 5", sg1.NumVerts())
	}
	a5 := sg1.LocalID(5)
	if a5 < 0 || !sg1.IsArt[a5] || len(sg1.Arts) != 1 {
		t.Fatalf("sg1 boundary APs = %v, want exactly vertex 5", sg1.Arts)
	}
	// α(5) from clique 1: everything except clique 1's exclusive vertices
	// and 5 itself = 20 - 4 - 1 = 15.
	if sg1.Alpha[a5] != 15 {
		t.Fatalf("alpha(5) = %v, want 15", sg1.Alpha[a5])
	}
	// The bridge group {5,10,15} sees clique volumes through each AP.
	var sgB *Subgraph
	for _, sg := range d.Subgraphs {
		if sg.NumVerts() == 3 {
			sgB = sg
			break
		}
	}
	if sgB == nil {
		t.Fatal("no 3-vertex bridge subgraph found")
	}
	for _, la := range sgB.Arts {
		want := 4.0 // the clique behind this AP, minus the AP itself
		if sgB.Verts[la] == 5 {
			want = 9 // clique 0 (5 vertices incl. 0) + clique 1's exclusive 4
		}
		if sgB.Alpha[la] != want {
			t.Fatalf("bridge alpha(%d) = %v, want %v", sgB.Verts[la], sgB.Alpha[la], want)
		}
		if sgB.Beta[la] != sgB.Alpha[la] {
			t.Fatal("beta != alpha on undirected graph")
		}
	}
}

func TestBiconnectedGraphSingleSubgraph(t *testing.T) {
	g := gen.Cycle(30)
	d := mustDecompose(t, g, Options{})
	if len(d.Subgraphs) != 1 || d.NumArticulation != 0 {
		t.Fatalf("cycle: %d subgraphs, %d APs", len(d.Subgraphs), d.NumArticulation)
	}
	if got := len(d.Subgraphs[0].Roots); got != 30 {
		t.Fatalf("cycle roots = %d, want 30", got)
	}
}

func TestArcConservation(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SocialLike(gen.SocialParams{N: 800, AvgDeg: 5, Communities: 10, TopShare: 0.5, LeafFrac: 0.3, Seed: 31}),
		gen.SocialLike(gen.SocialParams{N: 600, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.2, Directed: true, Reciprocity: 0.4, Seed: 32}),
		gen.RoadLike(gen.RoadParams{Rows: 12, Cols: 12, DeleteFrac: 0.1, SpurFrac: 0.1, SpurLen: 2, Seed: 33}),
		gen.Tree(200, 34),
	}
	for gi, g := range graphs {
		// Every arc is a swept arc of exactly one sub-graph or one of a folded
		// vertex's: its single out-arc, and undirected the arc back.
		perFold := int64(2)
		if g.Directed() {
			perFold = 1
		}
		d := mustDecompose(t, g, Options{Threshold: 8})
		var arcs, folded int64
		for _, sg := range d.Subgraphs {
			arcs += sg.NumArcs()
			folded += int64(sg.NumVerts() - len(sg.Roots))
		}
		if folded == 0 {
			t.Fatalf("graph %d: nothing folded", gi)
		}
		if arcs+perFold*folded != g.NumArcs() {
			t.Fatalf("graph %d: %d swept arcs + %d folded vertices != graph arcs %d", gi, arcs, folded, g.NumArcs())
		}
		whole := mustDecompose(t, g, Options{Threshold: 8, DisableGamma: true})
		arcs = 0
		for _, sg := range whole.Subgraphs {
			arcs += sg.NumArcs()
		}
		if arcs != g.NumArcs() {
			t.Fatalf("graph %d, γ disabled: subgraph arcs %d != graph arcs %d", gi, arcs, g.NumArcs())
		}
	}
}

func TestVertexCoverage(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 500, AvgDeg: 4, Communities: 8, TopShare: 0.4, LeafFrac: 0.25, Seed: 35})
	d := mustDecompose(t, g, Options{Threshold: 8})
	isAP := bcc.Find(g).IsArticulation
	seen := make([]int, g.NumVertices())
	for _, sg := range d.Subgraphs {
		for _, v := range sg.Verts {
			seen[v]++
		}
	}
	for v, c := range seen {
		switch {
		case c == 0:
			t.Fatalf("vertex %d in no subgraph", v)
		case c > 1 && !isAP[v]:
			t.Fatalf("non-AP vertex %d in %d subgraphs", v, c)
		}
	}
}

func TestLocalAdjacencyMatchesGlobal(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 5, Communities: 5, TopShare: 0.5, LeafFrac: 0.2, Directed: true, Reciprocity: 0.5, Seed: 36})
	d := mustDecompose(t, g, Options{Threshold: 8})
	for _, sg := range d.Subgraphs {
		for l := int32(0); int(l) < sg.NumVerts(); l++ {
			for _, lw := range sg.Out(l) {
				u, v := sg.Verts[l], sg.Verts[lw]
				if !g.HasArc(u, v) {
					t.Fatalf("subgraph arc %d->%d missing in G", u, v)
				}
			}
		}
	}
}

func TestTreeMatchesBFS(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SocialLike(gen.SocialParams{N: 700, AvgDeg: 5, Communities: 9, TopShare: 0.5, LeafFrac: 0.3, Seed: 41}),
		gen.RoadLike(gen.RoadParams{Rows: 10, Cols: 14, DeleteFrac: 0.12, SpurFrac: 0.15, SpurLen: 3, Seed: 42}),
		gen.Tree(300, 43),
		gen.Lollipop(10, 20),
	}
	for gi, g := range graphs {
		dTree := mustDecompose(t, g, Options{Threshold: 6})
		dBFS := mustDecompose(t, g, Options{Threshold: 6})
		alphaBetaBFS(dBFS)
		if len(dTree.Subgraphs) != len(dBFS.Subgraphs) {
			t.Fatalf("graph %d: nondeterministic partition", gi)
		}
		for si := range dTree.Subgraphs {
			a, b := dTree.Subgraphs[si], dBFS.Subgraphs[si]
			for _, la := range a.Arts {
				if a.Alpha[la] != b.Alpha[la] {
					t.Fatalf("graph %d sg %d AP %d: tree alpha %v != bfs alpha %v",
						gi, si, a.Verts[la], a.Alpha[la], b.Alpha[la])
				}
				if a.Beta[la] != b.Beta[la] {
					t.Fatalf("graph %d sg %d AP %d: beta mismatch", gi, si, a.Verts[la])
				}
			}
		}
	}
}

func TestDirectedAlphaBetaHand(t *testing.T) {
	// Triangle 0->1->2->0 with a directed tail 2->3 and source 4->0.
	// Undirected blocks: {0,1,2}, {2,3}, {0,4}. Threshold default merges the
	// 2-vertex blocks into the triangle group: single subgraph, no APs.
	// Use threshold 1 so nothing merges on size, but <=2-vertex blocks whose
	// father is top still merge... so instead verify the directed alpha/beta
	// on a graph whose blocks are all large enough: two directed triangles
	// sharing vertex 2, plus a one-way tail 2->5->6->2 forming a third cycle.
	edges := []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, // triangle A
		{From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 2}, // triangle B
	}
	g := graph.NewFromEdges(5, edges, true)
	d := mustDecompose(t, g, Options{Threshold: 2})
	if len(d.Subgraphs) != 2 {
		t.Fatalf("subgraphs = %d, want 2", len(d.Subgraphs))
	}
	for _, sg := range d.Subgraphs {
		if len(sg.Arts) != 1 {
			t.Fatalf("want exactly one boundary AP per subgraph, got %d", len(sg.Arts))
		}
		la := sg.Arts[0]
		if sg.Verts[la] != 2 {
			t.Fatalf("boundary AP = %d, want 2", sg.Verts[la])
		}
		// From vertex 2, both directions reach the two other vertices of the
		// opposite triangle.
		if sg.Alpha[la] != 2 || sg.Beta[la] != 2 {
			t.Fatalf("alpha=%v beta=%v, want 2/2", sg.Alpha[la], sg.Beta[la])
		}
	}
}

func TestDirectedAlphaBetaAsymmetric(t *testing.T) {
	// Triangle 0->1->2->0 plus one-way sink chain 2->3->4 (no return) and
	// one-way source chain 6->5->2.
	edges := []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 2, To: 3}, {From: 3, To: 4},
		{From: 6, To: 5}, {From: 5, To: 2},
	}
	g := graph.NewFromEdges(7, edges, true)
	d := mustDecompose(t, g, Options{Threshold: 1})
	// Find the subgraph of the triangle; vertex 1 is interior to it.
	var tri *Subgraph
	for _, sg := range d.Subgraphs {
		if sg.LocalID(1) >= 0 {
			tri = sg
		}
	}
	if tri == nil {
		t.Fatal("no triangle subgraph")
	}
	// The 2-vertex blocks {2,3} and {2,5} adjacent to the top (triangle)
	// block merge into it per Algorithm 1, so the top subgraph is
	// {0,1,2,3,5} with boundary APs 3 (toward sink block {3,4}) and 5
	// (toward source block {5,6}).
	if tri.NumVerts() != 5 {
		t.Fatalf("top subgraph has %d verts, want 5", tri.NumVerts())
	}
	l3, l5 := tri.LocalID(3), tri.LocalID(5)
	if l3 < 0 || l5 < 0 || !tri.IsArt[l3] || !tri.IsArt[l5] {
		t.Fatalf("vertices 3 and 5 should be boundary APs; arts=%v", tri.Arts)
	}
	// α(3): 3 reaches {4} outside; β(3): nothing outside reaches 3.
	if tri.Alpha[l3] != 1 || tri.Beta[l3] != 0 {
		t.Fatalf("AP 3: alpha=%v beta=%v, want 1/0", tri.Alpha[l3], tri.Beta[l3])
	}
	// α(5): 5 reaches nothing outside; β(5): {6} reaches 5.
	if tri.Alpha[l5] != 0 || tri.Beta[l5] != 1 {
		t.Fatalf("AP 5: alpha=%v beta=%v, want 0/1", tri.Alpha[l5], tri.Beta[l5])
	}
}

// Property: on undirected connected graphs, for every boundary AP a shared
// by k subgraphs, Σ_i α_SGi(a) == (k-1) * (componentSize - 1).
func TestQuickAlphaIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 6,
			TopShare: 0.4, LeafFrac: 0.3, Seed: seed})
		d, err := Decompose(g, Options{Threshold: 6})
		if err != nil {
			return false
		}
		n := g.NumVertices()
		alphaSum := map[graph.V]float64{}
		mult := map[graph.V]int{}
		for _, sg := range d.Subgraphs {
			for _, la := range sg.Arts {
				alphaSum[sg.Verts[la]] += sg.Alpha[la]
				mult[sg.Verts[la]]++
			}
		}
		for v, k := range mult {
			want := float64(k-1) * float64(n-1)
			if math.Abs(alphaSum[v]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRootsGammaConsistency(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 4, Communities: 5,
		TopShare: 0.5, LeafFrac: 0.35, Seed: 51})
	d := mustDecompose(t, g, Options{})
	for _, sg := range d.Subgraphs {
		var gammaTotal int64
		for _, gm := range sg.Gamma {
			gammaTotal += int64(gm)
		}
		if int(gammaTotal) != sg.NumVerts()-len(sg.Roots) {
			t.Fatalf("gamma total %d != removed %d", gammaTotal, sg.NumVerts()-len(sg.Roots))
		}
		if sg.NumVerts() > 0 && len(sg.Roots) == 0 {
			t.Fatal("subgraph lost all roots")
		}
	}
	if d.TotalRoots() >= int64(g.NumVertices()) {
		t.Fatal("expected some total-redundancy elimination on a leafy graph")
	}
}

func TestK2Component(t *testing.T) {
	// A lone edge: both endpoints qualify for removal; the tie-break must
	// keep vertex 0 rooted.
	g := graph.NewFromEdges(2, []graph.Edge{{From: 0, To: 1}}, false)
	d := mustDecompose(t, g, Options{})
	if len(d.Subgraphs) != 1 {
		t.Fatalf("subgraphs = %d", len(d.Subgraphs))
	}
	sg := d.Subgraphs[0]
	if len(sg.Roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", sg.Roots)
	}
	if sg.Verts[sg.Roots[0]] != 0 {
		t.Fatalf("surviving root = %d, want 0", sg.Verts[sg.Roots[0]])
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	d := mustDecompose(t, graph.NewFromEdges(0, nil, false), Options{})
	if len(d.Subgraphs) != 0 || d.TopIndex != -1 {
		t.Fatal("empty graph decomposition wrong")
	}
	// Isolated vertices produce no subgraphs.
	g := graph.NewFromEdges(5, []graph.Edge{{From: 0, To: 1}}, false)
	d2 := mustDecompose(t, g, Options{})
	if len(d2.Subgraphs) != 1 {
		t.Fatalf("subgraphs = %d, want 1 (isolated vertices skipped)", len(d2.Subgraphs))
	}
}

func TestDisconnectedComponents(t *testing.T) {
	// Two separate caveman chains: each component decomposes independently.
	a := gen.Caveman(3, 4, false)
	edges := a.Edges()
	off := int32(a.NumVertices())
	for _, e := range gen.Caveman(2, 5, false).Edges() {
		edges = append(edges, graph.Edge{From: e.From + off, To: e.To + off})
	}
	g := graph.NewFromEdges(int(off)+10, edges, false)
	d := mustDecompose(t, g, Options{Threshold: 3})
	// First chain: 3 cliques + the {0,4,8} bridge group; second: 2 cliques
	// (its bridge merges into the top clique).
	if len(d.Subgraphs) != 6 {
		t.Fatalf("subgraphs = %d, want 6", len(d.Subgraphs))
	}
	// α of an AP in the first component must never count second-component
	// vertices.
	for _, sg := range d.Subgraphs {
		for _, la := range sg.Arts {
			if sg.Verts[la] < off && sg.Alpha[la] > float64(off-1) {
				t.Fatalf("alpha leaked across components: %v", sg.Alpha[la])
			}
		}
	}
}

func TestSubgraphSizesSorted(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 600, AvgDeg: 5, Communities: 8,
		TopShare: 0.6, LeafFrac: 0.2, Seed: 61})
	d := mustDecompose(t, g, Options{Threshold: 8})
	sizes := d.SubgraphSizes()
	for i := 1; i < len(sizes); i++ {
		if sizes[i].Verts > sizes[i-1].Verts {
			t.Fatal("sizes not sorted")
		}
	}
	if sizes[0].Verts != d.Subgraphs[d.TopIndex].NumVerts() {
		t.Fatal("TopIndex does not match largest size")
	}
}

func TestThresholdMonotonic(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{N: 900, AvgDeg: 5, Communities: 14,
		TopShare: 0.4, LeafFrac: 0.3, Seed: 71})
	prev := -1
	for _, th := range []int{2, 8, 64, 100000} {
		d := mustDecompose(t, g, Options{Threshold: th})
		cur := len(d.Subgraphs)
		if prev >= 0 && cur > prev {
			t.Fatalf("threshold %d produced more subgraphs (%d) than smaller threshold (%d)", th, cur, prev)
		}
		prev = cur
	}
	// A huge threshold merges every block whose father is not the top block,
	// so only top-adjacent groups of 3+ vertices survive alongside the top.
	d := mustDecompose(t, g, Options{Threshold: 1 << 30})
	if len(d.Subgraphs) > prev {
		t.Fatalf("max threshold: %d subgraphs, want <= %d", len(d.Subgraphs), prev)
	}
}

// TestEnsureIn checks the lazy transpose CSR: on directed sub-graphs In(v)
// must list exactly the sources of arcs into v (sorted), on undirected ones
// it must alias the out-CSR.
func TestEnsureIn(t *testing.T) {
	dg := gen.ErdosRenyi(60, 180, true, 11)
	d := mustDecompose(t, dg, Options{Threshold: 4})
	for _, sg := range d.Subgraphs {
		if sg.inOffs != nil {
			t.Fatal("in-CSR present before EnsureIn")
		}
		if !sg.Directed() {
			t.Fatal("directed flag lost")
		}
		sg.EnsureIn()
		if sg.inOffs == nil {
			t.Fatal("in-CSR missing after EnsureIn")
		}
		// Model transpose from Out.
		want := make(map[int32][]int32)
		for u := int32(0); int(u) < sg.NumVerts(); u++ {
			for _, v := range sg.Out(u) {
				want[v] = append(want[v], u)
			}
		}
		for v := int32(0); int(v) < sg.NumVerts(); v++ {
			got := sg.In(v)
			if len(got) != len(want[v]) {
				t.Fatalf("In(%d) has %d arcs, want %d", v, len(got), len(want[v]))
			}
			for i, u := range want[v] {
				if got[i] != u {
					t.Fatalf("In(%d) = %v, want %v (sorted by source)", v, got, want[v])
				}
			}
		}
	}

	ug := gen.Caveman(3, 5, false)
	ud := mustDecompose(t, ug, Options{Threshold: 3})
	sg := ud.Subgraphs[0]
	sg.EnsureIn()
	for v := int32(0); int(v) < sg.NumVerts(); v++ {
		out, in := sg.Out(v), sg.In(v)
		if len(out) != len(in) {
			t.Fatalf("undirected In(%d) != Out(%d)", v, v)
		}
		for i := range out {
			if out[i] != in[i] {
				t.Fatalf("undirected In(%d) = %v, want Out = %v", v, in, out)
			}
		}
	}
}

// TestSweepEqual: two builds of one graph are equal sub-graph by sub-graph,
// and a change to any one thing a sweep reads makes a pair unequal.
func TestSweepEqual(t *testing.T) {
	g := gen.WithRandomWeights(gen.SocialLike(gen.SocialParams{
		N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}), 9, 3)
	a := mustDecompose(t, g, Options{Threshold: 8})
	b := mustDecompose(t, g, Options{Threshold: 8})
	si := -1
	for i, sg := range a.Subgraphs {
		if !sg.SweepEqual(b.Subgraphs[i]) {
			t.Fatalf("sub-graph %d differs between two builds of one graph", i)
		}
		if len(sg.Arts) > 0 && len(sg.Roots) < sg.NumVerts() {
			si = i
		}
	}
	if si < 0 {
		t.Fatal("no sub-graph with both a boundary AP and a folded vertex")
	}
	for _, tc := range []struct {
		field  string
		change func(s *Subgraph)
	}{
		{"Verts", func(s *Subgraph) { s.Verts[len(s.Verts)-1]++ }},
		{"offs", func(s *Subgraph) { s.offs[1]++ }},
		{"adj", func(s *Subgraph) { s.adj[0]++ }},
		{"wts", func(s *Subgraph) { s.wts[0]++ }},
		{"Arts", func(s *Subgraph) { s.Arts[0]++ }},
		{"Alpha", func(s *Subgraph) { s.Alpha[s.Arts[0]]++ }},
		{"Beta", func(s *Subgraph) { s.Beta[s.Arts[0]]++ }},
		{"Gamma", func(s *Subgraph) { s.Gamma[0]++ }},
		{"Roots", func(s *Subgraph) { s.Roots = s.Roots[1:] }},
		{"directed", func(s *Subgraph) { s.directed = !s.directed }},
	} {
		changed := mustDecompose(t, g, Options{Threshold: 8}).Subgraphs[si]
		tc.change(changed)
		if a.Subgraphs[si].SweepEqual(changed) || changed.SweepEqual(a.Subgraphs[si]) {
			t.Fatalf("sub-graphs that differ in %s compare equal", tc.field)
		}
	}
}

// TestSubgraphsOfMatchesScan holds the membership map to a scan of every
// sub-graph's Verts: SubgraphsOf(v) lists exactly the sub-graphs that hold v,
// each once; nil for an isolated vertex; several exactly when every holder
// marks v IsArt; and appending to one vertex's list writes into no other's.
func TestSubgraphsOfMatchesScan(t *testing.T) {
	var isolated, shared int
	for seed := int64(1); seed <= 8; seed++ {
		for _, directed := range []bool{false, true} {
			er := gen.ErdosRenyi(80, 90, directed, seed)
			social := gen.SocialLike(gen.SocialParams{N: 300, AvgDeg: 4, Communities: 6,
				TopShare: 0.4, LeafFrac: 0.3, Directed: directed, Seed: seed})
			for _, src := range []*graph.Graph{er, social} {
				// Five more vertices with no edge, so every graph has isolated ones.
				g := graph.NewFromEdges(src.NumVertices()+5, src.Edges(), directed)
				for _, th := range []int{1, 0, 1_000_000} {
					for _, noGamma := range []bool{false, true} {
						d := mustDecompose(t, g, Options{Threshold: th, DisableGamma: noGamma})
						label := fmt.Sprintf("seed %d directed %v n %d threshold %d noGamma %v", seed, directed, g.NumVertices(), th, noGamma)
						i, s := checkSubgraphsOf(t, label, d)
						isolated += i
						shared += s
					}
				}
			}
		}
	}
	if isolated == 0 || shared == 0 {
		t.Fatalf("the inputs had %d isolated vertices and %d boundary APs; both must occur", isolated, shared)
	}
}

// checkSubgraphsOf checks d.SubgraphsOf against a scan of d.Subgraphs and
// returns how many isolated vertices and boundary APs it saw.
func checkSubgraphsOf(t *testing.T, label string, d *Decomposition) (isolated, shared int) {
	t.Helper()
	n := d.G.NumVertices()
	scan := make([][]int32, n)
	for si, sg := range d.Subgraphs {
		for _, v := range sg.Verts {
			scan[v] = append(scan[v], int32(si))
		}
	}
	for v := graph.V(0); int(v) < n; v++ {
		_ = append(d.SubgraphsOf(v), -7)
	}
	for v := graph.V(0); int(v) < n; v++ {
		got := d.SubgraphsOf(v)
		if !slices.Equal(slices.Sorted(slices.Values(got)), scan[v]) {
			t.Fatalf("%s: SubgraphsOf(%d) = %v, the sub-graphs holding it are %v", label, v, got, scan[v])
		}
		switch {
		case len(got) == 0:
			if got != nil || d.G.OutDegree(v)+d.G.InDegree(v) != 0 {
				t.Fatalf("%s: vertex %d of degree %d held by no sub-graph (nil list %v)", label, v, d.G.OutDegree(v)+d.G.InDegree(v), got == nil)
			}
			isolated++
		case len(got) > 1:
			shared++
		}
		for _, si := range got {
			sg := d.Subgraphs[si]
			if sg.IsArt[sg.LocalID(v)] != (len(got) > 1) {
				t.Fatalf("%s: vertex %d in %d sub-graphs, IsArt in sub-graph %d is %v", label, v, len(got), si, sg.IsArt[sg.LocalID(v)])
			}
		}
	}
	if shared != d.NumArticulation {
		t.Fatalf("%s: %d vertices in several sub-graphs, NumArticulation %d", label, shared, d.NumArticulation)
	}
	return isolated, shared
}
