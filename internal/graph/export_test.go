package graph

// Transpose returns the reverse graph. For undirected graphs it returns g.
func (g *Graph) Transpose() *Graph {
	if !g.directed {
		return g
	}
	g.EnsureTranspose()
	t := &Graph{n: g.n, directed: true, offs: g.inOffs, adj: g.inAdj, wts: g.inWts,
		inOffs: g.offs, inAdj: g.adj, inWts: g.wts}
	return t
}

// UnitWeights returns a weighted copy of an unweighted graph with every
// edge at weight 1 (useful for cross-checking the weighted engines against
// the unweighted ones).
func (g *Graph) UnitWeights() *Graph {
	var wedges []WeightedEdge
	for _, e := range g.Edges() {
		wedges = append(wedges, WeightedEdge{From: e.From, To: e.To, W: 1})
	}
	return NewWeightedFromEdges(g.n, wedges, g.directed)
}
