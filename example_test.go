package repro_test

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
)

// The smallest end-to-end use: build a graph, rank vertices by betweenness.
func ExampleBetweennessCentrality() {
	// A path 0-1-2-3-4: the middle vertex carries the most shortest paths.
	g := repro.NewGraph(5, []repro.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	}, false)
	bc, err := repro.BetweennessCentrality(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	for _, vs := range repro.TopK(bc, 3) {
		fmt.Printf("vertex %d: %.0f\n", vs.Vertex, vs.Score)
	}
	// Output:
	// vertex 2: 8
	// vertex 1: 6
	// vertex 3: 6
}

// A weighted graph's shortest paths are its lightest, not its fewest hops.
func ExampleBetweennessCentrality_weighted() {
	// Square 0-1-2-3-0 with one heavy edge: paths avoid it.
	g := repro.NewWeightedGraph(4, []repro.WeightedEdge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1}, {From: 3, To: 0, W: 10},
	}, false)
	bc, err := repro.BetweennessCentrality(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("inner vertices carry %.0f and %.0f\n", bc[1], bc[2])
	// Output:
	// inner vertices carry 4 and 4
}

// Decompose reports the articulation structure APGRE exploits.
func ExampleDecompose() {
	// Two triangles joined at vertex 2 — a single articulation point.
	g := repro.NewGraph(5, []repro.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 2},
	}, false)
	d, err := repro.Decompose(g, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d sub-graphs, %d articulation point(s)\n", d.Subgraphs, d.ArticulationPoints)
	// Output:
	// 2 sub-graphs, 1 articulation point(s)
}

// Incremental maintenance absorbs local edge changes without a full
// recomputation.
func ExampleNewIncrementalBC() {
	g := repro.NewGraph(5, []repro.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	}, false)
	inc, err := repro.NewIncrementalBC(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bc[2] = %.0f\n", inc.BC()[2])
	// Closing the cycle removes vertex 2's monopoly on shortest paths.
	if err := inc.InsertEdge(4, 0); err != nil {
		panic(err)
	}
	fmt.Printf("after closing the ring: bc[2] = %.0f\n", inc.BC()[2])
	// Output:
	// bc[2] = 8
	// after closing the ring: bc[2] = 2
}

// How much of Brandes' work APGRE skips on a community graph, and the scores
// it returns in its place: the same as serial Brandes'.
func ExampleAnalyzeRedundancy() {
	// 300 members in 6 communities joined by bridge members, a third of them
	// one-link accounts.
	g := repro.GenerateSocial(repro.SocialParams{
		N: 300, AvgDeg: 4, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 42,
	})
	red, err := repro.AnalyzeRedundancy(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Brandes' work: %.0f%% effective, %.0f%% partly and %.0f%% totally redundant\n",
		100*red.Effective, 100*red.Partial, 100*red.Total)
	apgre, err := repro.BetweennessCentrality(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	serial, err := repro.BetweennessCentrality(g, repro.Options{Algorithm: repro.AlgoSerial})
	if err != nil {
		panic(err)
	}
	worst := 0.0
	for v := range apgre {
		worst = max(worst, math.Abs(apgre[v]-serial[v])/(1+serial[v]))
	}
	fmt.Printf("APGRE equals serial Brandes: %v\n", worst < 1e-9)
	// Output:
	// Brandes' work: 18% effective, 52% partly and 30% totally redundant
	// APGRE equals serial Brandes: true
}

// A community network's top broker sits at an articulation point: losing it
// strands whole communities.
func ExampleTopK_brokers() {
	g := repro.GenerateSocial(repro.SocialParams{
		N: 200, AvgDeg: 4, Communities: 8, TopShare: 0.35, LeafFrac: 0.4, Seed: 2,
	})
	dec, err := repro.Decompose(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d sub-graphs joined at %d articulation points\n", dec.Subgraphs, dec.ArticulationPoints)
	bc, err := repro.BetweennessCentrality(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	top := repro.TopK(bc, 3)
	for _, vs := range top {
		fmt.Printf("broker %d: bc %.0f, degree %d\n", vs.Vertex, vs.Score, g.OutDegree(vs.Vertex))
	}
	fmt.Printf("losing broker %d strands %d pairs of other members\n",
		top[0].Vertex, stranded(g, top[0].Vertex))
	// Output:
	// 4 sub-graphs joined at 3 articulation points
	// broker 48: bc 18820, degree 4
	// broker 1: bc 18011, degree 21
	// broker 33: bc 17562, degree 3
	// losing broker 48 strands 17420 pairs of other members
}

// A road network's busiest intersections by hop count are not its busiest by
// travel time: weights move the shortest paths onto the fast roads.
func ExampleBetweennessCentrality_travelTime() {
	// A 5×5 street grid, intersection r*5+c, every block 3 minutes long
	// except along the avenue (column 4), where a block takes 1.
	const rows, cols = 5, 5
	var streets []repro.WeightedEdge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := repro.V(r*cols + c)
			if c+1 < cols {
				streets = append(streets, repro.WeightedEdge{From: u, To: u + 1, W: 3})
			}
			if r+1 < rows {
				w := 3.0
				if c == cols-1 {
					w = 1
				}
				streets = append(streets, repro.WeightedEdge{From: u, To: u + cols, W: w})
			}
		}
	}
	hops := make([]repro.Edge, len(streets))
	for i, e := range streets {
		hops[i] = repro.Edge{From: e.From, To: e.To}
	}
	for _, g := range []*repro.Graph{
		repro.NewGraph(rows*cols, hops, false),
		repro.NewWeightedGraph(rows*cols, streets, false),
	} {
		bc, err := repro.BetweennessCentrality(g, repro.Options{})
		if err != nil {
			panic(err)
		}
		busiest := repro.TopK(bc, 1)[0]
		fmt.Printf("weighted %v: busiest intersection %d (%.0f)\n", g.Weighted(), busiest.Vertex, busiest.Score)
	}
	// Output:
	// weighted false: busiest intersection 12 (131)
	// weighted true: busiest intersection 14 (123)
}

// An N-1 contingency screen of a power grid (the paper's citation [6]): rank
// the buses by betweenness, then drop each of the top ones and count the
// ordered bus pairs left without a path.
func ExampleBetweennessCentrality_contingency() {
	// Four regional 3×3 meshes; tie-lines join regions 0, 1 and 2 in a ring
	// and hang region 3 off region 2. Region r's buses are 9r..9r+8.
	var lines []repro.Edge
	for r := repro.V(0); r < 4; r++ {
		for i := repro.V(0); i < 9; i++ {
			if i%3 < 2 {
				lines = append(lines, repro.Edge{From: 9*r + i, To: 9*r + i + 1})
			}
			if i < 6 {
				lines = append(lines, repro.Edge{From: 9*r + i, To: 9*r + i + 3})
			}
		}
	}
	lines = append(lines, repro.Edge{From: 8, To: 9}, repro.Edge{From: 17, To: 18},
		repro.Edge{From: 20, To: 2}, repro.Edge{From: 26, To: 27})
	grid := repro.NewGraph(36, lines, false)

	bc, err := repro.BetweennessCentrality(grid, repro.Options{})
	if err != nil {
		panic(err)
	}
	for _, vs := range repro.TopK(bc, 4) {
		fmt.Printf("bus %d: criticality %.0f, losing it strands %d pairs\n",
			vs.Vertex, vs.Score, stranded(grid, vs.Vertex))
	}
	// Criticality shifts once the worst contingency has happened.
	after, err := repro.BetweennessCentrality(dropVertex(grid, 26), repro.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("without bus 26, bus %d is the most critical\n", repro.TopK(after, 1)[0].Vertex)
	// Output:
	// bus 26: criticality 480, losing it strands 468 pairs
	// bus 20: criticality 438, losing it strands 0 pairs
	// bus 27: criticality 435, losing it strands 432 pairs
	// bus 23: criticality 402, losing it strands 0 pairs
	// without bus 26, bus 2 is the most critical
}

// Incremental BC follows a stream of edge edits: each edit re-sweeps only the
// sub-graphs it changed, and the scores stay those of a fresh computation.
func ExampleNewIncrementalBC_edgeStream() {
	g := repro.GenerateSocial(repro.SocialParams{
		N: 150, AvgDeg: 4, Communities: 5, TopShare: 0.4, LeafFrac: 0.3, Seed: 21,
	})
	inc, err := repro.NewIncrementalBC(g, repro.Options{})
	if err != nil {
		panic(err)
	}
	// Twenty edits toggling an edge u-w. Most close a triangle inside a
	// community, the way friendships form (w two hops from u); the rest join
	// two random members.
	r := rand.New(rand.NewSource(5))
	for edits := 0; edits < 20; {
		u := repro.V(r.Intn(g.NumVertices()))
		w := repro.V(r.Intn(g.NumVertices()))
		if nbrs := inc.Graph().Out(u); len(nbrs) > 0 && r.Float64() < 0.8 {
			if nn := inc.Graph().Out(nbrs[r.Intn(len(nbrs))]); len(nn) > 0 {
				w = nn[r.Intn(len(nn))]
			}
		}
		if u == w {
			continue
		}
		edit := inc.InsertEdge
		if inc.Graph().HasArc(u, w) {
			edit = inc.RemoveEdge
		}
		if err := edit(u, w); err != nil {
			panic(err)
		}
		edits++
	}
	fmt.Printf("%d edits stayed in one sub-graph, %d joined two\n", inc.LocalUpdates(), inc.FullRebuilds())
	fresh, err := repro.BetweennessCentrality(inc.Graph(), repro.Options{Algorithm: repro.AlgoSerial})
	if err != nil {
		panic(err)
	}
	got, worst := inc.BC(), 0.0
	for v := range fresh {
		worst = max(worst, math.Abs(got[v]-fresh[v])/(1+fresh[v]))
	}
	fmt.Printf("top broker %d; scores equal a fresh computation: %v\n", repro.TopK(got, 1)[0].Vertex, worst < 1e-9)
	// Output:
	// 19 edits stayed in one sub-graph, 1 joined two
	// top broker 6; scores equal a fresh computation: true
}

// dropVertex returns g without the edges at x.
func dropVertex(g *repro.Graph, x repro.V) *repro.Graph {
	var kept []repro.Edge
	for _, e := range g.Edges() {
		if e.From != x && e.To != x {
			kept = append(kept, e)
		}
	}
	return repro.NewGraph(g.NumVertices(), kept, g.Directed())
}

// stranded counts the ordered pairs of a connected, undirected g's other
// vertices that losing x leaves without a path.
func stranded(g *repro.Graph, x repro.V) int64 {
	n := int64(g.NumVertices())
	return (n-1)*(n-2) - connectedPairs(dropVertex(g, x))
}

// connectedPairs counts the ordered vertex pairs of an undirected g joined by
// a path: Σ s·(s-1) over its components' sizes s.
func connectedPairs(g *repro.Graph) int64 {
	seen := make([]bool, g.NumVertices())
	var pairs int64
	for s := range seen {
		if seen[s] {
			continue
		}
		seen[s] = true
		size := int64(0)
		for stack := []repro.V{repro.V(s)}; len(stack) > 0; size++ {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Out(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		pairs += size * (size - 1)
	}
	return pairs
}
