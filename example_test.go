package repro_test

import (
	"fmt"

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
