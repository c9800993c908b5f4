package core

import (
	"fmt"
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ws"
)

// chordRing appends a biconnected block on the k vertices from base up: a
// cycle plus a chord at every third vertex. No vertex has degree one, so the
// whole block is swept — a sub-graph of exactly k swept vertices.
func chordRing(es []graph.Edge, base, k int) []graph.Edge {
	at := func(i int) graph.V { return graph.V(base + i%k) }
	for i := 0; i < k; i++ {
		es = append(es, graph.Edge{From: at(i), To: at(i + 1)})
		if i%3 == 0 {
			es = append(es, graph.Edge{From: at(i), To: at(i + 2 + i%5)})
		}
	}
	return es
}

// oneBlock decomposes a chordRing of k vertices into its single sub-graph.
func oneBlock(t *testing.T, k int) *decompose.Subgraph {
	t.Helper()
	d, err := decompose.Decompose(graph.NewFromEdges(k, chordRing(nil, 0, k), false), decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subgraphs) != 1 || len(d.Subgraphs[0].Roots) != k {
		t.Fatalf("chordRing(%d): %d sub-graphs, %d swept vertices in the first", k, len(d.Subgraphs), len(d.Subgraphs[0].Roots))
	}
	return d.Subgraphs[0]
}

// sweepUnit runs one unit through a fresh engine and reports its scores and
// whether the lane kernel took it: bfsRoot alone counts what it examined, and
// top-down it examines exactly what it traverses.
func sweepUnit(t *testing.T, sg *decompose.Subgraph, roots []int32, forced bool) (bc []float64, lanes bool) {
	t.Helper()
	e := &engine{forceLanes: forced, force: dirTopDown}
	e.ensure(sg)
	e.runRoots(sg, roots, false)
	bc = append(bc, e.ws.BC[:sg.NumVerts()]...)
	clear(e.ws.BC[:sg.NumVerts()])
	if err := checkClean(e.ws); err != nil {
		t.Fatal(err)
	}
	e.release()
	if e.traversed == 0 || e.examined != 0 && e.examined != e.traversed {
		t.Fatalf("a unit of %d roots traversed %d arcs, bfsRoot examined %d: neither kernel alone", len(roots), e.traversed, e.examined)
	}
	return bc, e.examined == 0
}

// TestKernelRuleBoundary pins the kernel rule (useLanes) at each of its three
// bounds: a unit takes the lane kernel exactly when its lane state fits
// laneBudget, it has msbfsMinLanes roots and the swept graph msbfsMinVerts
// vertices; EngineMSBFS lifts the first bound only; the unit's cost follows
// the kernel; and on either side of every bound the scores are the scalar
// kernel's, bit for bit.
func TestKernelRuleBoundary(t *testing.T) {
	fits := laneBudget / ws.LaneBytesPerVert // 819
	if fits != 819 || (fits+1)*ws.LaneBytesPerVert <= laneBudget {
		t.Fatalf("fits = %d", fits)
	}
	for _, c := range []struct {
		swept, roots  int // roots 0 = all of them
		lanes, forced bool
	}{
		{fits, 0, true, true},
		{fits + 1, 0, false, true},
		{fits, msbfsMinLanes, true, true},
		{fits, msbfsMinLanes - 1, false, false},
		{msbfsMinVerts, 0, true, true},
		{msbfsMinVerts - 1, 0, false, false},
	} {
		sg := oneBlock(t, c.swept)
		roots := sg.Roots
		if c.roots > 0 {
			roots = roots[:c.roots]
		}
		name := fmt.Sprintf("%d swept, %d roots", c.swept, len(roots))
		var want []float64
		scalarOnly(func() {
			var lanes bool
			if want, lanes = sweepUnit(t, sg, roots, false); lanes {
				t.Fatalf("%s: budget 0 took the lane kernel", name)
			}
		})
		for _, forced := range []bool{false, true} {
			got, lanes := sweepUnit(t, sg, roots, forced)
			if wantLanes := c.lanes && !forced || c.forced && forced; lanes != wantLanes {
				t.Fatalf("%s, forced %v: lane kernel %v, want %v", name, forced, lanes, wantLanes)
			}
			bcBitsEqual(t, fmt.Sprintf("%s, forced %v vs scalar", name, forced), want, got)
			if lanes != useLanes(sg, len(roots), false, forced) {
				t.Fatalf("%s, forced %v: runRoots and useLanes disagree", name, forced)
			}
		}
		// A unit is costed by the kernel the rule gives it.
		wantCost := int64(len(roots)) * (int64(c.swept) + sg.NumArcs())
		if c.lanes {
			wantCost = int64((len(roots)+ws.LaneWidth-1)/ws.LaneWidth) * (int64(c.swept) + sg.NumArcs())
		}
		if got := unitCost(sg, len(roots), useLanes(sg, len(roots), false, false)); got != wantCost {
			t.Fatalf("%s: unit cost %d, want %d", name, got, wantCost)
		}
	}
	// The budget is read in bytes of the swept graph, not of the id space: a
	// sub-graph most of whose ids are folded leaves is sized by what is left.
	star := []graph.Edge(nil)
	for leaf := 0; leaf < 4000; leaf++ {
		star = append(star, graph.Edge{From: graph.V(leaf % 100), To: graph.V(100 + leaf)})
	}
	d, err := decompose.Decompose(graph.NewFromEdges(4100, chordRing(star, 0, 100), false), decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := d.Subgraphs[d.TopIndex]
	if top.NumVerts() != 4100 || len(top.Roots) != 100 {
		t.Fatalf("leafy block: %d ids, %d swept", top.NumVerts(), len(top.Roots))
	}
	if _, lanes := sweepUnit(t, top, top.Roots, false); !lanes {
		t.Fatal("a 100-vertex swept graph under 4,100 ids went scalar: the rule read the id space")
	}
	// A weighted unit never takes it.
	if useLanes(top, len(top.Roots), true, true) {
		t.Fatal("the rule gave a weighted unit to the BFS lane kernel")
	}
}

// TestLaneMemoryBounded: whatever a pooled workspace has swept, under the rule
// it holds at most laneBudget of lane arrays — they are sized by the swept
// graph of the last lane-eligible sub-graph, never by the workspace's capacity
// — and goes back clean. One 5,000-vertex block (scalar by the rule) with
// twenty blocks of 100–500 vertices hanging off it (lanes).
func TestLaneMemoryBounded(t *testing.T) {
	const big = 5000
	es := chordRing(nil, 0, big)
	n := big
	for i := 0; i < 20; i++ {
		k := 100 + 21*i
		// The block's first vertex is a vertex of the big one: an articulation point.
		start := len(es)
		es = chordRing(es, n-1, k)
		anchor := graph.V(i * 200)
		for j := start; j < len(es); j++ {
			if es[j].From == graph.V(n-1) {
				es[j].From = anchor
			}
			if es[j].To == graph.V(n-1) {
				es[j].To = anchor
			}
		}
		n += k - 1
	}
	g := graph.NewFromEdges(n, es, false)
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var laneSubs int
	for _, sg := range d.Subgraphs {
		if useLanes(sg, len(sg.Roots), false, false) {
			laneSubs++
		}
	}
	if top := d.Subgraphs[d.TopIndex]; len(d.Subgraphs) != 21 || laneSubs != 20 || len(top.Roots) != big {
		t.Fatalf("fixture: %d sub-graphs, %d lane-eligible, top sweeps %d", len(d.Subgraphs), laneSubs, len(top.Roots))
	}
	want := computeScalar(t, g, Options{Workers: 2})
	sweepPool = ws.Pool{}
	got, err := ComputeDecomposed(d, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bcBitsEqual(t, "rule vs scalar", want, got)
	size, inUse := sweepPool.Stats()
	if inUse != 0 || size == 0 {
		t.Fatalf("pool after the run: %d sweeps, %d in use", size, inUse)
	}
	// What a workspace weighs is ws.Sweep.Bytes, the number bcd exports as
	// bcd_ws_bytes; the budget is the σ/δ/BC slots', the two mask words per id
	// ride on top. The pool's own total must be the sum.
	var held []*ws.Sweep
	var sum ws.Bytes
	var lanes, bigCap int
	for i := 0; i < size; i++ {
		s := sweepPool.Get(0)
		held = append(held, s)
		b := s.Bytes()
		sum.Base, sum.Lanes, sum.Tape = sum.Base+b.Base, sum.Lanes+b.Lanes, sum.Tape+b.Tape
		if slots := b.Lanes - 8*int64(len(s.LaneSeen)+len(s.LaneFront)); slots > int64(laneBudget) {
			t.Fatalf("pooled workspace of capacity %d holds %d B of lane arrays, budget %d", len(s.Dist), slots, laneBudget)
		} else if slots > 0 {
			lanes++
		}
		if len(s.Dist) >= big {
			bigCap++
		}
		if err := checkClean(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range held {
		sweepPool.Put(s)
	}
	if got := sweepPool.Bytes(); got != sum {
		t.Fatalf("pool reports %+v, its %d sweeps hold %+v", got, size, sum)
	}
	if lanes == 0 || bigCap == 0 {
		t.Fatalf("%d workspaces grew lane arrays, %d reached the big block's capacity: the case is vacuous", lanes, bigCap)
	}
}

// TestLaneKernelBitMatchesScalarAtScale settles the bit-identity contract at
// the sizes where the kernel rule makes it load-bearing: an R-MAT of 4,096
// vertices swept from every root, one of 131,072 vertices under a RootBudget,
// and a 120×120 road lattice, lanes forced onto every unit against the scalar
// kernel everywhere, at one and two workers. The lattice is the family on
// which the two kernels used to differ in the last bit of a few scores per ten
// thousand ("association order", EXPERIMENTS.md §At-scale): its path counts
// pass 2^53 (10^60 and more), where σ sums stop being exact, and the lane
// kernel now hands such batches back to the scalar one. The R-MATs' top
// sub-graphs have hubs and are swept under the local ids decompose's relabel
// chose, with Roots out of local-id order, the lattice's under input order:
// the contract holds on both layouts, and the test fails if a fixture stops
// being the layout it is here for.
func TestLaneKernelBitMatchesScalarAtScale(t *testing.T) {
	for _, c := range []struct {
		name       string
		build      func() *graph.Graph
		budget     int
		big        bool
		relabelled bool
	}{
		{"R-MAT scale 12", func() *graph.Graph { return gen.RMAT(12, 8, 0.57, 0.19, 0.19, false, 11) }, 0, false, true},
		{"R-MAT scale 17", func() *graph.Graph { return gen.RMAT(17, 2, 0.57, 0.19, 0.19, false, 11) }, 192, true, true},
		{"lattice 120x120", func() *graph.Graph {
			return gen.RoadLike(gen.RoadParams{Rows: 120, Cols: 120, DeleteFrac: 0.12, SpurFrac: 0.18, SpurLen: 4, Seed: 11})
		}, 192, false, false},
	} {
		if c.big && testing.Short() {
			continue
		}
		g := c.build()
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		top := d.Subgraphs[d.TopIndex]
		if useLanes(top, len(top.Roots), false, false) {
			t.Fatalf("%s: the top sub-graph (%d swept) is within the budget; forcing proves nothing", c.name, len(top.Roots))
		}
		if top.Relabelled() != c.relabelled {
			t.Fatalf("%s: top sub-graph relabelled %v, want %v", c.name, top.Relabelled(), c.relabelled)
		}
		for _, p := range []int{1, 2} {
			opt := Options{Workers: p, RootBudget: c.budget}
			var want []float64
			scalarOnly(func() { want, err = ComputeDecomposed(d, opt) })
			if err != nil {
				t.Fatal(err)
			}
			opt.RootEngine = EngineMSBFS
			got, err := ComputeDecomposed(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			bcBitsEqual(t, fmt.Sprintf("%s (%d vertices, top sweeps %d) p=%d", c.name, g.NumVertices(), len(top.Roots), p), want, got)
		}
		sweepPool = ws.Pool{} // do not leave the forced run's lane arrays to the other tests
	}
}

// TestLaneBatchesMixAPRoots: the lane kernel's backward step sums the lanes
// whose root is an articulation point apart from the others — three
// dependencies against two. On an undirected and a directed community graph
// whose lane units carry both kinds of root in one lane word (the fixture
// fails if none does), the rule's scores are the scalar kernel's bit for bit
// at one and two workers: splitting the lanes changes no lane's operands or
// their order.
func TestLaneBatchesMixAPRoots(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"undirected", gen.SocialLike(gen.SocialParams{N: 2000, AvgDeg: 10, Communities: 134,
			TopShare: 0.46, LeafFrac: 0.53, Seed: 5})},
		{"directed", gen.SocialLike(gen.SocialParams{N: 3000, AvgDeg: 6, Communities: 40,
			TopShare: 0.3, LeafFrac: 0.3, Directed: true, Reciprocity: 0.5, Seed: 5})},
	} {
		d, err := decompose.Decompose(c.g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			var batches, mixed int
			for _, u := range buildUnits(d, rootGroups(d, 0), Options{}) {
				if !useLanes(u.sg, len(u.roots), false, false) {
					continue
				}
				for lo := 0; lo < len(u.roots); lo += ws.LaneWidth {
					batch := u.roots[lo:min(lo+ws.LaneWidth, len(u.roots))]
					arts := 0
					for _, r := range batch {
						if u.sg.IsArt[r] {
							arts++
						}
					}
					batches++
					if arts > 0 && arts < len(batch) {
						mixed++
					}
				}
			}
			if mixed == 0 {
				t.Fatalf("%s p=%d: none of %d lane batches mixes articulation-point and other roots", c.name, p, batches)
			}
			opt := Options{Workers: p}
			var want []float64
			scalarOnly(func() { want, err = ComputeDecomposed(d, opt) })
			if err != nil {
				t.Fatal(err)
			}
			got, err := ComputeDecomposed(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			bcBitsEqual(t, fmt.Sprintf("%s p=%d (%d of %d lane batches mixed)", c.name, p, mixed, batches), want, got)
		}
	}
}

// layered is a chain of layers of width vertices each, complete bipartite
// between neighbours: one biconnected block in which every vertex past the
// second layer has width same-level parents and the path count from one end
// to layer k is width^(k-1).
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

// TestLaneKernelYieldsWhereSigmaIsInexact: the bit-identity of the two kernels
// rests on σ sums being exact, which float64 gives below 2^53 only. A unit the
// rule hands to the lane kernel on a sub-graph whose path counts go past that
// (40 layers of 3: 3^38) comes back unfinished, its roots go through bfsRoot,
// the engine stops offering that sub-graph to the lane kernel, and the scores
// are the scalar kernel's bit for bit — as they are one size down (30 layers,
// 3^28 < 2^53), where the lane kernel finishes the job.
func TestLaneKernelYieldsWhereSigmaIsInexact(t *testing.T) {
	for _, c := range []struct {
		layers int
		lanes  bool
	}{{40, false}, {30, true}} {
		d, err := decompose.Decompose(layered(c.layers, 3), decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sg := d.Subgraphs[0]
		if len(d.Subgraphs) != 1 || !useLanes(sg, len(sg.Roots), false, false) {
			t.Fatalf("%d layers: %d sub-graphs, the first outside the rule", c.layers, len(d.Subgraphs))
		}
		var want []float64
		scalarOnly(func() { want, _ = sweepUnit(t, sg, sg.Roots, false) })
		got, lanes := sweepUnit(t, sg, sg.Roots, false)
		if lanes != c.lanes {
			t.Fatalf("%d layers: the lane kernel finished the unit: %v, want %v", c.layers, lanes, c.lanes)
		}
		bcBitsEqual(t, fmt.Sprintf("%d layers, rule vs scalar", c.layers), want, got)
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
