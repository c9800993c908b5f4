package decompose

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bcc"
	"repro/internal/gen"
	"repro/internal/graph"
)

// buildFamilies rebuilds the generator families internal/core's
// schedFamilies uses (that helper lives in another package's test files),
// plus a windmill whose hub joins every one of its 300 groups and a ring of
// 80 vertices with a triangle on each, a sub-graph of 80 boundary APs: more
// than one 64-source mask of the α/β composition holds.
func buildFamilies() map[string]*graph.Graph {
	var blades, ring []graph.Edge
	for i := int32(0); i < 300; i++ {
		a, b := 1+2*i, 2+2*i
		blades = append(blades, graph.Edge{From: 0, To: a}, graph.Edge{From: 0, To: b}, graph.Edge{From: a, To: b})
	}
	for i := int32(0); i < 80; i++ {
		a, b := 80+2*i, 81+2*i
		ring = append(ring, graph.Edge{From: i, To: (i + 1) % 80},
			graph.Edge{From: i, To: a}, graph.Edge{From: i, To: b}, graph.Edge{From: a, To: b})
	}
	return map[string]*graph.Graph{
		"path":     gen.Path(20),
		"star":     gen.Star(20),
		"lollipop": gen.Lollipop(6, 10),
		"tree":     gen.Tree(50, 1),
		"caveman":  gen.Caveman(4, 6, false),
		"grid":     gen.Grid2D(6, 6),
		"social": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1}),
		"socialDir": gen.SocialLike(gen.SocialParams{
			N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3,
			Directed: true, Reciprocity: 0.5, Seed: 2}),
		"er":       gen.ErdosRenyi(300, 900, false, 7),
		"windmill": graph.NewFromEdges(601, blades, false),
		"ring":     graph.NewFromEdges(240, ring, false),
	}
}

// oriented returns a directed graph with g's undirected structure: every
// edge keeps its low-to-high arc and every third edge its reverse arc too.
func oriented(g *graph.Graph) *graph.Graph {
	var edges []graph.Edge
	for i, e := range g.Undirected().Edges() {
		edges = append(edges, e)
		if i%3 == 0 {
			edges = append(edges, graph.Edge{From: e.To, To: e.From})
		}
	}
	return graph.NewFromEdges(g.NumVertices(), edges, true)
}

type oracleSub struct {
	verts []graph.V
	offs  []int64
	adj   []int32
	wts   []float64
	arts  []int32
}

// oracleBuild is the reference builder: collect each group's vertices from
// its blocks and sort them, give every arc to the group of the one block its
// endpoints share (found by intersecting their block lists), and sort every
// row. It shares bcc.Find and mergeBlocks with Decompose and nothing else.
func oracleBuild(g *graph.Graph, threshold int) []oracleSub {
	res := bcc.Find(g)
	blockGroup, numGroups := mergeBlocks(g, res, threshold)
	subs := make([]oracleSub, numGroups)
	groupsOf := make([]map[int32]bool, g.NumVertices())
	for b, verts := range res.BlockVerts {
		for _, v := range verts {
			if groupsOf[v] == nil {
				groupsOf[v] = map[int32]bool{}
			}
			if !groupsOf[v][blockGroup[b]] {
				groupsOf[v][blockGroup[b]] = true
				subs[blockGroup[b]].verts = append(subs[blockGroup[b]].verts, v)
			}
		}
	}
	localOf := make([]map[graph.V]int32, numGroups)
	for gr := range subs {
		vs := subs[gr].verts
		slices.Sort(vs)
		localOf[gr] = map[graph.V]int32{}
		for l, v := range vs {
			localOf[gr][v] = int32(l)
			if len(groupsOf[v]) > 1 {
				subs[gr].arts = append(subs[gr].arts, int32(l))
			}
		}
	}
	type arc struct {
		from, to int32
		w        float64
	}
	arcs := make([][]arc, numGroups)
	for u := graph.V(0); int(u) < g.NumVertices(); u++ {
		for i, w := range g.Out(u) {
			common := int32(-1)
			for _, bu := range res.VertexBlocks[u] {
				for _, bw := range res.VertexBlocks[w] {
					if bu == bw {
						if common >= 0 {
							panic(fmt.Sprintf("arc %d->%d lies in two blocks", u, w))
						}
						common = bu
					}
				}
			}
			gr := blockGroup[common]
			a := arc{from: localOf[gr][u], to: localOf[gr][w]}
			if g.Weighted() {
				a.w = g.OutWeights(u)[i]
			}
			arcs[gr] = append(arcs[gr], a)
		}
	}
	for gr := range subs {
		as := arcs[gr]
		sort.Slice(as, func(i, j int) bool {
			if as[i].from != as[j].from {
				return as[i].from < as[j].from
			}
			return as[i].to < as[j].to
		})
		sub := &subs[gr]
		sub.offs = make([]int64, len(sub.verts)+1)
		for _, a := range as {
			sub.offs[a.from+1]++
			sub.adj = append(sub.adj, a.to)
			if g.Weighted() {
				sub.wts = append(sub.wts, a.w)
			}
		}
		for l := range sub.verts {
			sub.offs[l+1] += sub.offs[l]
		}
	}
	return subs
}

// forEachBuild decomposes every family × as-is/oriented/weighted × three
// thresholds. Threshold 1 merges nothing by size, so every articulation
// point that is not absorbed with a 2-vertex block becomes a boundary AP.
func forEachBuild(t *testing.T, check func(label string, g *graph.Graph, threshold int, d *Decomposition)) {
	for name, base := range buildFamilies() {
		variants := map[string]*graph.Graph{
			"":          base,
			"/weighted": gen.WithRandomWeights(base, 9, 3),
		}
		if !base.Directed() {
			variants["/oriented"] = oriented(base)
			variants["/oriented/weighted"] = gen.WithRandomWeights(variants["/oriented"], 9, 4)
		}
		for vname, g := range variants {
			for _, th := range []int{1, 8, 64} {
				check(fmt.Sprintf("%s%s threshold %d", name, vname, th), g, th, mustDecompose(t, g, Options{Threshold: th}))
			}
		}
	}
}

// fold is the reference fold over o's vertices: which of them total-redundancy
// elimination takes out of the root set, the oracle-local id each is folded
// into (-1 for the rest) and γ. It restates the rule from the graph's rows —
// one edge (directed: one out-arc and no in-arc), and of two such vertices
// facing each other the smaller id stays — and shares no code with Subgraph.fold.
func (o oracleSub) fold(g *graph.Graph, disableGamma bool) (foldedInto, gamma []int32) {
	leaf := func(v graph.V) bool {
		return len(g.Out(v)) == 1 && (!g.Directed() || len(g.In(v)) == 0)
	}
	foldedInto = make([]int32, len(o.verts))
	gamma = make([]int32, len(o.verts))
	for l, v := range o.verts {
		foldedInto[l] = -1
		if disableGamma || !leaf(v) {
			continue
		}
		p := g.Out(v)[0]
		if leaf(p) && v < p {
			continue
		}
		if lp, ok := slices.BinarySearch(o.verts, p); ok {
			foldedInto[l] = int32(lp)
			gamma[lp]++
		}
	}
	return foldedInto, gamma
}

// swept returns o's rows as a sweep walks them: the rows of the folded
// vertices emptied, and the folded vertices taken out of every other row.
func (o oracleSub) swept(folded func(l int32) bool) (offs []int64, adj []int32, wts []float64) {
	offs = make([]int64, len(o.offs))
	for l := range o.verts {
		for i := o.offs[l]; i < o.offs[l+1] && !folded(int32(l)); i++ {
			if !folded(o.adj[i]) {
				adj = append(adj, o.adj[i])
				if o.wts != nil {
					wts = append(wts, o.wts[i])
				}
			}
		}
		offs[l+1] = int64(len(adj))
	}
	return offs, adj, wts
}

// matchOracle holds sg to the reference build o of its group through Verts,
// so in whichever order sg's local ids are: the vertex set is the oracle's,
// and spelled in global ids so are every swept row with its weights (the
// oracle's rows with the folded vertices filtered out), IsArt, γ, the fold
// targets, and Arts and Roots as sequences.
func matchOracle(t *testing.T, label string, g *graph.Graph, disableGamma bool, sg *Subgraph, o oracleSub) {
	t.Helper()
	type arc struct {
		to graph.V
		w  float64
	}
	if sg.Directed() != g.Directed() || sg.Weighted() != g.Weighted() {
		t.Fatalf("%s: directed or weighted flag lost", label)
	}
	localOf := make(map[graph.V]int32, len(sg.Verts))
	for l, v := range sg.Verts {
		localOf[v] = int32(l)
	}
	if len(localOf) != len(sg.Verts) || len(sg.Verts) != len(o.verts) {
		t.Fatalf("%s: Verts %v is not a relabelling of the oracle's %v", label, sg.Verts, o.verts)
	}
	foldedInto, gamma := o.fold(g, disableGamma)
	offs, adj, wts := o.swept(func(l int32) bool { return foldedInto[l] >= 0 })
	isArt := make([]bool, len(o.verts))
	for _, l := range o.arts {
		isArt[l] = true
	}
	var roots []graph.V
	for lo, v := range o.verts {
		l, ok := localOf[v]
		if !ok {
			t.Fatalf("%s: vertex %d is missing from Verts %v", label, v, sg.Verts)
		}
		var got, want []arc
		for i, w := range sg.Out(l) {
			a := arc{to: sg.Verts[w]}
			if sg.Weighted() {
				a.w = sg.OutWeights(l)[i]
			}
			got = append(got, a)
		}
		slices.SortFunc(got, func(a, b arc) int { return int(a.to) - int(b.to) })
		for i := offs[lo]; i < offs[lo+1]; i++ {
			a := arc{to: o.verts[adj[i]]}
			if wts != nil {
				a.w = wts[i]
			}
			want = append(want, a)
		}
		into := graph.V(-1)
		if sg.foldedInto[l] >= 0 {
			into = sg.Verts[sg.foldedInto[l]]
		}
		wantInto := graph.V(-1)
		if foldedInto[lo] >= 0 {
			wantInto = o.verts[foldedInto[lo]]
		} else {
			roots = append(roots, v)
		}
		switch {
		case !slices.Equal(got, want):
			t.Fatalf("%s: vertex %d has the swept row %v, oracle %v", label, v, got, want)
		case sg.IsArt[l] != isArt[lo]:
			t.Fatalf("%s: vertex %d: IsArt %v, oracle %v", label, v, sg.IsArt[l], isArt[lo])
		case sg.Gamma[l] != gamma[lo]:
			t.Fatalf("%s: vertex %d: γ %d, oracle %d", label, v, sg.Gamma[l], gamma[lo])
		case into != wantInto:
			t.Fatalf("%s: vertex %d is folded into %d, oracle %d (-1: not folded)", label, v, into, wantInto)
		}
	}
	global := func(ls []int32, verts []graph.V) []graph.V {
		out := make([]graph.V, len(ls))
		for i, l := range ls {
			out[i] = verts[l]
		}
		return out
	}
	if got, want := global(sg.Arts, sg.Verts), global(o.arts, o.verts); !slices.Equal(got, want) {
		t.Fatalf("%s: Arts names the vertices %v, oracle %v", label, got, want)
	}
	if got := global(sg.Roots, sg.Verts); !slices.Equal(got, roots) {
		t.Fatalf("%s: Roots names the vertices %v, oracle %v", label, got, roots)
	}
	if int64(len(adj)) != sg.NumArcs() {
		t.Fatalf("%s: %d swept arcs, oracle %d", label, sg.NumArcs(), len(adj))
	}
}

// TestBuilderMatchesOracle holds buildSubgraphs — the fold, both layouts and
// the one writer of their swept rows — to the reference builder through
// matchOracle on every build of forEachBuild, some of whose sub-graphs are
// relabelled and most not.
// At threshold 1 arcs between two boundary APs (neither end has a home group
// to go by) occur; the test fails if none did.
func TestBuilderMatchesOracle(t *testing.T) {
	bothBoundary := 0
	layouts := map[bool]int{}
	forEachBuild(t, func(label string, g *graph.Graph, th int, d *Decomposition) {
		want := oracleBuild(g, th)
		if len(d.Subgraphs) != len(want) {
			t.Fatalf("%s: %d sub-graphs, oracle has %d", label, len(d.Subgraphs), len(want))
		}
		boundary := map[graph.V]bool{}
		for si, sg := range d.Subgraphs {
			if sg.ID != si {
				t.Fatalf("%s: sub-graph %d has ID %d", label, si, sg.ID)
			}
			matchOracle(t, fmt.Sprintf("%s sg %d", label, si), g, false, sg, want[si])
			layouts[sg.Relabelled()]++
			for _, l := range sg.Arts {
				boundary[sg.Verts[l]] = true
			}
		}
		if d.NumArticulation != len(boundary) {
			t.Fatalf("%s: NumArticulation %d, want %d", label, d.NumArticulation, len(boundary))
		}
		for u := range boundary {
			for _, w := range g.Out(u) {
				if boundary[w] {
					bothBoundary++
				}
			}
		}
	})
	if bothBoundary == 0 {
		t.Fatal("no arc joined two boundary articulation points: that case went untested")
	}
	if layouts[false] == 0 || layouts[true] == 0 {
		t.Fatalf("%d sub-graphs in the input layout and %d relabelled: one layout went untested", layouts[false], layouts[true])
	}
}

// TestFoldedVerticesLeaveTheRows pins what the sweep kernels rely on, on every
// build of forEachBuild: a γ-folded vertex has an empty Out and In row and
// occurs in no row, every other vertex is a root, γ counts exactly the folded
// vertices, and the swept rows never hold more arcs than the graph. (That the
// rows are the right ones is TestBuilderMatchesOracle's half.)
func TestFoldedVerticesLeaveTheRows(t *testing.T) {
	folds := map[bool]int{}
	forEachBuild(t, func(label string, g *graph.Graph, th int, d *Decomposition) {
		var adjLen int64
		for si, sg := range d.Subgraphs {
			adjLen += int64(len(sg.adj))
			sg.EnsureIn()
			var folded, gamma int
			for l := int32(0); int(l) < sg.NumVerts(); l++ {
				gamma += int(sg.Gamma[l])
				if sg.foldedInto[l] >= 0 {
					folded++
					if len(sg.Out(l)) != 0 || len(sg.In(l)) != 0 {
						t.Fatalf("%s sg %d: folded vertex %d keeps rows Out %v In %v", label, si, l, sg.Out(l), sg.In(l))
					}
				}
				for _, w := range sg.Out(l) {
					if sg.foldedInto[w] >= 0 {
						t.Fatalf("%s sg %d: folded vertex %d is in row %d", label, si, w, l)
					}
				}
				for _, w := range sg.In(l) {
					if sg.foldedInto[w] >= 0 {
						t.Fatalf("%s sg %d: folded vertex %d is in in-row %d", label, si, w, l)
					}
				}
			}
			for _, r := range sg.Roots {
				if sg.foldedInto[r] >= 0 {
					t.Fatalf("%s sg %d: folded vertex %d is a root", label, si, r)
				}
			}
			if gamma != folded || len(sg.Roots)+folded != sg.NumVerts() {
				t.Fatalf("%s sg %d: Σγ %d, %d folded, %d roots, %d vertices", label, si, gamma, folded, len(sg.Roots), sg.NumVerts())
			}
			if int64(len(sg.adj)) != sg.NumArcs() || sg.Weighted() && len(sg.wts) != len(sg.adj) {
				t.Fatalf("%s sg %d: %d swept arcs in an adjacency of %d (%d weights)", label, si, sg.NumArcs(), len(sg.adj), len(sg.wts))
			}
			folds[g.Directed()] += folded
		}
		if adjLen > g.NumArcs() {
			t.Fatalf("%s: sub-graph adjacencies hold %d arcs, the input %d", label, adjLen, g.NumArcs())
		}
	})
	if folds[false] == 0 || folds[true] == 0 {
		t.Fatalf("folded %d undirected and %d directed vertices: one case went untested", folds[false], folds[true])
	}
}

// TestAdjacentBoundaryAPs is the smallest graph on which "an arc belongs to
// its target's home group" has no answer: cliques T = {0..5} and D = {5..9}
// share a = 5, the bridge a–b (b = 10) hangs off T and merges into it as a
// 2-vertex block, and clique C = {10..14} at b stays apart. Both a and b are
// boundary APs of T's sub-graph and adjacent inside it, so only the block
// the two share says where the arcs a->b and b->a go.
func TestAdjacentBoundaryAPs(t *testing.T) {
	var edges []graph.Edge
	clique := func(vs ...graph.V) {
		for i, u := range vs {
			for _, w := range vs[i+1:] {
				edges = append(edges, graph.Edge{From: u, To: w})
			}
		}
	}
	const a, b = 5, 10
	clique(0, 1, 2, 3, 4, a)
	clique(a, 6, 7, 8, 9)
	edges = append(edges, graph.Edge{From: a, To: b})
	clique(b, 11, 12, 13, 14)
	g := graph.NewFromEdges(15, edges, false)
	d := mustDecompose(t, g, Options{Threshold: 4})
	if len(d.Subgraphs) != 3 || d.NumArticulation != 2 {
		t.Fatalf("%d sub-graphs, %d boundary APs; want 3 and 2", len(d.Subgraphs), d.NumArticulation)
	}
	for _, sg := range d.Subgraphs {
		la, lb := sg.LocalID(a), sg.LocalID(b)
		var wantVerts int
		var wantArcs int64
		switch {
		case la >= 0 && lb >= 0: // T plus the bridge
			wantVerts, wantArcs = 7, 6*5+2
			if !sg.IsArt[la] || !sg.IsArt[lb] {
				t.Fatal("a and b must both be boundary APs of the top sub-graph")
			}
			if row := sg.Out(lb); len(row) != 1 || row[0] != la {
				t.Fatalf("b's row in the top sub-graph is %v, want just a (%d)", row, la)
			}
			if row := sg.Out(la); len(row) != 6 || row[5] != lb {
				t.Fatalf("a's row in the top sub-graph is %v, want T's five others then b (%d)", row, lb)
			}
		case la >= 0: // D
			wantVerts, wantArcs = 5, 5*4
			if len(sg.Out(la)) != 4 {
				t.Fatalf("a's row in D is %v, want D's four others", sg.Out(la))
			}
		case lb >= 0: // C
			wantVerts, wantArcs = 5, 5*4
			if len(sg.Out(lb)) != 4 {
				t.Fatalf("b's row in C is %v, want C's four others", sg.Out(lb))
			}
		default:
			t.Fatalf("sub-graph %d holds neither a nor b", sg.ID)
		}
		if sg.NumVerts() != wantVerts || sg.NumArcs() != wantArcs {
			t.Fatalf("sub-graph %d: %d vertices, %d arcs; want %d and %d",
				sg.ID, sg.NumVerts(), sg.NumArcs(), wantVerts, wantArcs)
		}
	}
}

// TestHubOfManyGroupsStaysLinear: a windmill's hub is a boundary AP of every
// blade, each blade a group of its own, so a build that read the hub's whole
// row once per group it joins would be quadratic in the blades. Ten times the
// blades must cost about ten times the time (min of three), not a hundred:
// the bound, 40×, sits between the two.
func TestHubOfManyGroupsStaysLinear(t *testing.T) {
	windmill := func(blades int32) *graph.Graph {
		var edges []graph.Edge
		for i := int32(0); i < blades; i++ {
			a, b := 1+2*i, 2+2*i
			edges = append(edges, graph.Edge{From: 0, To: a}, graph.Edge{From: 0, To: b}, graph.Edge{From: a, To: b})
		}
		return graph.NewFromEdges(int(2*blades+1), edges, false)
	}
	// best is the least of three builds, or the first one over limit.
	best := func(g *graph.Graph, limit time.Duration) time.Duration {
		var min time.Duration
		for range 3 {
			start := time.Now()
			d := mustDecompose(t, g, Options{})
			if dt := time.Since(start); min == 0 || dt < min {
				min = dt
			}
			if len(d.Subgraphs) != g.NumVertices()/2 {
				t.Fatalf("%d sub-graphs, want one per blade (%d)", len(d.Subgraphs), g.NumVertices()/2)
			}
			if min > limit {
				break
			}
		}
		return min
	}
	small := best(windmill(10_000), time.Hour)
	large := best(windmill(100_000), 40*small)
	t.Logf("10⁴ blades %v, 10⁵ blades %v (%.1f×)", small, large, float64(large)/float64(small))
	if large > 40*small {
		t.Fatalf("10× the blades took %.0f× the time (%v vs %v): the build is not linear in the hub's groups",
			float64(large)/float64(small), large, small)
	}
}

// TestDecomposeAllocs bounds Decompose's allocation count by the sizes of
// its outputs — blocks, sub-graphs, vertices — with no term in arcs: no
// per-arc record, no sort closure per row, no slice grown per block.
func TestDecomposeAllocs(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, false, 1)
	var d *Decomposition
	allocs := testing.AllocsPerRun(5, func() {
		d = mustDecompose(t, g, Options{Threshold: 8})
	})
	blocks := bcc.Find(g).NumBlocks()
	// Per sub-graph: the struct, seven per-vertex arrays (foldedInto took the
	// place of the fold pass's scratch flags), the CSR pair and the root list's
	// growth steps. The vertex and block terms are slack; the constant covers
	// the flat arrays, the forest's and the α/β composition's among them.
	bound := float64(24*len(d.Subgraphs) + (blocks+g.NumVertices())/16 + 64)
	t.Logf("%.0f allocations; %d sub-graphs, %d blocks, %d vertices, %d arcs; bound %.0f",
		allocs, len(d.Subgraphs), blocks, g.NumVertices(), g.NumArcs(), bound)
	if allocs > bound {
		t.Fatalf("Decompose made %.0f allocations, bound %.0f", allocs, bound)
	}
}

// checkRowsAscending fails unless every Out row of d is strictly ascending.
func checkRowsAscending(t *testing.T, label string, d *Decomposition) {
	t.Helper()
	for si, sg := range d.Subgraphs {
		for l := int32(0); int(l) < sg.NumVerts(); l++ {
			row := sg.Out(l)
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					t.Fatalf("%s sg %d: row %d is not strictly ascending: %v", label, si, l, row)
				}
			}
		}
	}
}

// TestOutRowsStayAscending pins the property the backward push's bit-identity
// rests on (core.bfsRoot): every Out row is strictly ascending after Decompose,
// on every build of forEachBuild.
func TestOutRowsStayAscending(t *testing.T) {
	forEachBuild(t, func(label string, _ *graph.Graph, _ int, d *Decomposition) {
		checkRowsAscending(t, label, d)
	})
}
