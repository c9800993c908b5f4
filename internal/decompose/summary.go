package decompose

import "sort"

// SizeInfo describes one sub-graph's size for Table 4 — every local vertex,
// and the swept arcs (Subgraph.NumArcs — the γ-folded vertices' arcs are not
// among them) — and what its layout was decided on: the swept graph's vertex
// count and largest out-degree (the mean is Arcs/Swept), and the decision.
type SizeInfo struct {
	Verts      int
	Arcs       int64
	Swept      int
	MaxDegree  int
	Relabelled bool
}

// SubgraphSizes returns per-sub-graph sizes sorted by decreasing vertex
// count (ties by arcs) — the shape Table 4 reports (top, second, third
// sub-graph).
func (d *Decomposition) SubgraphSizes() []SizeInfo {
	out := make([]SizeInfo, len(d.Subgraphs))
	for i, sg := range d.Subgraphs {
		out[i] = SizeInfo{Verts: sg.NumVerts(), Arcs: sg.NumArcs(), Swept: len(sg.Roots), Relabelled: sg.relabelled}
		for _, l := range sg.Roots {
			out[i].MaxDegree = max(out[i].MaxDegree, len(sg.Out(l)))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Verts != out[j].Verts {
			return out[i].Verts > out[j].Verts
		}
		return out[i].Arcs > out[j].Arcs
	})
	return out
}

// TotalRoots returns the total number of BFS roots across sub-graphs; the
// difference versus the vertex count is the total-redundancy saving.
func (d *Decomposition) TotalRoots() int64 {
	var t int64
	for _, sg := range d.Subgraphs {
		t += int64(len(sg.Roots))
	}
	return t
}
