package msbfs_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/brandes"
	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/ws"
)

// testGraphs mirrors the nine-family equivalence suite used across the repo,
// plus a disconnected graph (two components and isolated vertices), which
// the kernel must handle: lanes whose root cannot reach a vertex simply never
// set their bit there.
func testGraphs() map[string]*graph.Graph {
	disc := graph.NewFromEdges(30, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
		{From: 2, To: 4}, {From: 4, To: 5},
		// second component: a small clique with a tail
		{From: 10, To: 11}, {From: 11, To: 12}, {From: 12, To: 10},
		{From: 12, To: 13}, {From: 13, To: 14},
		// vertices 15..29 isolated
	}, false)
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
		"er":           gen.ErdosRenyi(300, 900, false, 7),
		"disconnected": disc,
	}
}

// runBatched computes full BC for g by decomposing and feeding every
// sub-graph's root set to the kernel in batches of the given width — the
// kernel-level equivalent of core.Compute with the msbfs engine.
func runBatched(t *testing.T, g *graph.Graph, width int) []float64 {
	t.Helper()
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	bc := make([]float64, g.NumVertices())
	var sw ws.Sweep
	directed := g.Directed()
	for _, sg := range d.Subgraphs {
		sw.GrowLanes(len(sg.Roots), 0)
		for lo := 0; lo < len(sg.Roots); lo += width {
			hi := lo + width
			if hi > len(sg.Roots) {
				hi = len(sg.Roots)
			}
			if _, exact := msbfs.Run(sg, sg.Roots[lo:hi], directed, &sw); !exact {
				t.Fatalf("sub-graph %d: a path count reached 2^53 on a test family", sg.ID)
			}
		}
		for l, v := range sg.Verts[:len(sg.Roots)] {
			bc[v] += sw.BC[l]
			sw.BC[l] = 0
		}
	}
	if err := checkClean(&sw); err != nil {
		t.Fatalf("sweep dirty after batched runs: %v", err)
	}
	return bc
}

func bcClose(want, got []float64, tol float64) (int, bool) {
	for i := range want {
		diff := math.Abs(want[i] - got[i])
		if scale := math.Abs(want[i]); scale > 1 {
			diff /= scale
		}
		if diff > tol {
			return i, false
		}
	}
	return -1, true
}

// TestKernelMatchesBrandes checks the batched kernel against serial Brandes
// on every family, at a full batch width, a width that does not divide the
// root count, and single-lane batches.
func TestKernelMatchesBrandes(t *testing.T) {
	for name, g := range testGraphs() {
		want := brandes.Serial(g)
		for _, width := range []int{msbfs.LaneWidth, 7, 1} {
			got := runBatched(t, g, width)
			if i, ok := bcClose(want, got, 1e-9); !ok {
				t.Fatalf("%s width=%d: kernel differs from Brandes at vertex %d: want %v got %v",
					name, width, i, want[i], got[i])
			}
		}
	}
}

// TestKernelBatchWidthBitInvariant pins the package's central claim: the
// batch width cannot change a single output bit, because σ sums are exact
// integer arithmetic and per-lane float sequences replay the scalar order.
// Width 1 is the scalar engine's one-root-at-a-time schedule; 64 and the
// non-dividing 7 must match it bit for bit.
func TestKernelBatchWidthBitInvariant(t *testing.T) {
	for name, g := range testGraphs() {
		base := runBatched(t, g, 1)
		for _, width := range []int{7, msbfs.LaneWidth} {
			got := runBatched(t, g, width)
			for v := range base {
				if math.Float64bits(base[v]) != math.Float64bits(got[v]) {
					t.Fatalf("%s: width %d differs from width 1 at vertex %d: %v vs %v",
						name, width, v, base[v], got[v])
				}
			}
		}
	}
}

// TestKernelDuplicateRoots verifies that lanes are independent even when a
// batch repeats a root: running {r, r} must produce exactly twice running
// {r} (addition of equal floats is exact doubling only in sum order — here
// both lanes produce identical contributions, folded in lane order, which
// equals running the root twice sequentially).
func TestKernelDuplicateRoots(t *testing.T) {
	g := gen.Lollipop(5, 5)
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	var once, twice ws.Sweep
	for _, sg := range d.Subgraphs {
		if len(sg.Roots) == 0 {
			continue
		}
		r := sg.Roots[0]
		once.GrowLanes(len(sg.Roots), 0)
		twice.GrowLanes(len(sg.Roots), 0)
		msbfs.Run(sg, []int32{r}, false, &once)
		msbfs.Run(sg, []int32{r}, false, &once)
		msbfs.Run(sg, []int32{r, r}, false, &twice)
		n := len(sg.Roots)
		for l := 0; l < n; l++ {
			if math.Float64bits(once.BC[l]) != math.Float64bits(twice.BC[l]) {
				t.Fatalf("sg %d vertex %d: sequential %v, duplicate-lane batch %v",
					sg.ID, l, once.BC[l], twice.BC[l])
			}
			once.BC[l], twice.BC[l] = 0, 0
		}
	}
}

// TestKernelTraversedMetric pins the traversed-arc accounting to the scalar
// definition: Σ over (root, visited vertex) of out-degree. On a path graph
// every root visits every vertex of its sub-graph.
func TestKernelTraversedMetric(t *testing.T) {
	g := gen.Complete(8) // one biconnected block, no decomposition splits
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subgraphs) != 1 {
		t.Fatalf("complete graph decomposed into %d sub-graphs", len(d.Subgraphs))
	}
	sg := d.Subgraphs[0]
	var sw ws.Sweep
	sw.GrowLanes(len(sg.Roots), 0)
	traversed, exact := msbfs.Run(sg, sg.Roots, false, &sw)
	// Every root visits all 8 vertices, each of out-degree 7.
	want := int64(len(sg.Roots)) * 8 * 7
	if traversed != want || !exact {
		t.Fatalf("traversed = %d (exact %v), want %d", traversed, exact, want)
	}
	for l := range sw.BC[:len(sg.Roots)] {
		sw.BC[l] = 0
	}
	if err := checkClean(&sw); err != nil {
		t.Fatalf("sweep dirty: %v", err)
	}
}

// TestKernelEmptyAndOversizedBatch covers the contract edges: an empty batch
// is a no-op, a batch beyond LaneWidth panics.
func TestKernelEmptyAndOversizedBatch(t *testing.T) {
	g := gen.Path(4)
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	sg := d.Subgraphs[0]
	var sw ws.Sweep
	if got, exact := msbfs.Run(sg, nil, false, &sw); got != 0 || !exact {
		t.Fatalf("empty batch traversed %d arcs (exact %v)", got, exact)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized batch did not panic")
		}
	}()
	msbfs.Run(sg, make([]int32, msbfs.LaneWidth+1), false, &sw)
}

// layered is a chain of `layers` layers of `width` vertices, complete
// bipartite between neighbours: biconnected, every vertex past the second
// layer has `width` same-level parents from either end, and the path count
// between the ends is width^(layers-2).
func layered(layers, width int) *graph.Graph {
	var es []graph.Edge
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				es = append(es, graph.Edge{From: graph.V(l*width + a), To: graph.V((l+1)*width + b)})
			}
		}
	}
	return graph.NewFromEdges(layers*width, es, false)
}

// TestKernelDeclinesInexactSigma pins the edge of the bit-exactness argument:
// a batch in which a path count reaches 2^53 — where three same-level parents
// no longer sum to the same float64 in every order — reports itself inexact,
// leaves s.BC untouched and the workspace clean, and Run then finishes an
// exact batch on the same scratch. 36 layers of 3 carry 3^34 ≈
// 1.7·10^16 paths end to end; 30 layers stay under 2^53.
func TestKernelDeclinesInexactSigma(t *testing.T) {
	var sw ws.Sweep
	for _, c := range []struct {
		layers int
		exact  bool
	}{{36, false}, {30, true}, {36, false}} {
		d, err := decompose.Decompose(layered(c.layers, 3), decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Subgraphs) != 1 {
			t.Fatalf("%d layers: %d sub-graphs", c.layers, len(d.Subgraphs))
		}
		sg := d.Subgraphs[0]
		sw.GrowLanes(len(sg.Roots), 0)
		traversed, exact := msbfs.Run(sg, sg.Roots[:8], false, &sw)
		if exact != c.exact || exact != (traversed > 0) {
			t.Fatalf("%d layers: exact %v, traversed %d", c.layers, exact, traversed)
		}
		touched := false
		for l := range sw.BC[:len(sg.Roots)] {
			touched = touched || sw.BC[l] != 0
			sw.BC[l] = 0
		}
		if touched != c.exact {
			t.Fatalf("%d layers: exact %v but scores written %v", c.layers, exact, touched)
		}
		if err := checkClean(&sw); err != nil {
			t.Fatalf("%d layers: %v", c.layers, err)
		}
	}
}

// TestKernelInexactFullBatchComesBackClean: a batch that goes inexact resets
// σ over the lanes that saw each vertex, and nothing else holds σ — so even a
// full lane word over a sub-graph where lanes see different vertices leaves
// the workspace clean and s.BC untouched, AP and non-AP lanes alike, and the
// same scratch then finishes an exact batch of both kinds. The fixture is 36
// layers of 3 with every arc pointing to the next layer, so a root reaches
// only the layers after its own, and a directed 4-cycle hanging off every
// ninth vertex: those vertices are articulation points and the cycles
// sub-graphs of their own.
func TestKernelInexactFullBatchComesBackClean(t *testing.T) {
	var sw ws.Sweep
	for _, c := range []struct {
		layers int
		exact  bool
	}{{36, false}, {30, true}} {
		base := layered(c.layers, 3)
		n := base.NumVertices()
		es := base.Edges()
		for v := 0; v < base.NumVertices(); v += 9 {
			a, b, d := graph.V(n), graph.V(n+1), graph.V(n+2)
			es = append(es, graph.Edge{From: graph.V(v), To: a}, graph.Edge{From: a, To: b},
				graph.Edge{From: b, To: d}, graph.Edge{From: d, To: graph.V(v)})
			n += 3
		}
		dec, err := decompose.Decompose(graph.NewFromEdges(n, es, true), decompose.Options{Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		sg := dec.Subgraphs[dec.TopIndex]
		roots := sg.Roots[:msbfs.LaneWidth]
		arts := 0
		for _, r := range roots {
			if sg.IsArt[r] {
				arts++
			}
		}
		if arts == 0 || arts == len(roots) {
			t.Fatalf("%d layers: %d of %d roots are articulation points, want some of each", c.layers, arts, len(roots))
		}
		sw.GrowLanes(len(sg.Roots), 0)
		traversed, exact := msbfs.Run(sg, roots, true, &sw)
		if exact != c.exact || exact != (traversed > 0) {
			t.Fatalf("%d layers: exact %v, traversed %d", c.layers, exact, traversed)
		}
		touched := false
		for l := range sw.BC[:len(sg.Roots)] {
			touched = touched || sw.BC[l] != 0
			sw.BC[l] = 0
		}
		if touched != c.exact {
			t.Fatalf("%d layers: exact %v but scores written %v", c.layers, exact, touched)
		}
		if err := checkClean(&sw); err != nil {
			t.Fatalf("%d layers: %v", c.layers, err)
		}
	}
}

// TestKernelScratchLivesInTheArena: the kernel keeps no scratch of its own —
// its level lists and touched list are the workspace's — so once one batch
// has grown them, another batch on the same workspace allocates nothing. The
// batch is a full lane word over a community graph's top sub-graph, several
// levels deep, with articulation-point roots among its lanes.
func TestKernelScratchLivesInTheArena(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.SocialLike(gen.SocialParams{N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5,
			LeafFrac: 0.3, Directed: directed, Reciprocity: 0.5, Seed: 1})
		d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		sg := d.Subgraphs[d.TopIndex]
		if len(sg.Arts) == 0 {
			t.Fatalf("directed %v: the top sub-graph has no articulation point", directed)
		}
		arts := sg.Arts[:min(8, len(sg.Arts))]
		roots := append(slices.Clone(arts), sg.Roots[:msbfs.LaneWidth-len(arts)]...)
		var sw ws.Sweep
		sw.GrowLanes(len(sg.Roots), 0)
		run := func() {
			if _, exact := msbfs.Run(sg, roots, directed, &sw); !exact {
				t.Fatal("a path count reached 2^53")
			}
			clear(sw.BC[:len(sg.Roots)])
		}
		run()
		if levels := len(sw.Levels); levels < 3 {
			t.Fatalf("directed %v: the batch is %d levels deep; the fixture is too shallow", directed, levels)
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("directed %v: a warm batch allocated %.0f times", directed, allocs)
		}
		if err := checkClean(&sw); err != nil {
			t.Fatal(err)
		}
	}
}

// checkClean holds s to ws's clean-slot invariants over its whole capacity
// (len(s.Dist)) and every lane slot, reading only exported fields.
func checkClean(s *ws.Sweep) error {
	for v := range s.Dist {
		if s.Dist[v] != -1 || s.BC[v] != 0 || s.Visited.Get(v) {
			return fmt.Errorf("dirty slot %d: Dist %d, BC %g, Visited %v", v, s.Dist[v], s.BC[v], s.Visited.Get(v))
		}
		if s.FDist != nil && (s.FDist[v] != -1 || s.Done[v]) {
			return fmt.Errorf("dirty weighted slot %d: FDist %g, Done %v", v, s.FDist[v], s.Done[v])
		}
	}
	for v, m := range s.LaneSeen {
		if m|s.LaneFront[v] != 0 {
			return fmt.Errorf("dirty lane masks %d: LaneSeen %#x, LaneFront %#x", v, m, s.LaneFront[v])
		}
	}
	for i, r := range s.LaneRec {
		if r.Sigma != 0 {
			return fmt.Errorf("dirty LaneRec[%d].Sigma = %g", i, r.Sigma)
		}
	}
	return nil
}
