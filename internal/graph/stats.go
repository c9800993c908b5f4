package graph

// DegreeStats summarizes a graph's degree distribution; it backs the
// motivation census (paper Figure 2: articulation points and single-edge
// vertices in real graphs).
type DegreeStats struct {
	MinOut, MaxOut int
	MeanOut        float64
	// Degree1 counts vertices with total degree 1 in the undirected view —
	// the "vertices with a single edge" of §2.2.
	Degree1 int
	// Sources counts directed vertices with no in-edges and exactly one
	// out-edge: the total-redundancy candidates of §2.2 / Theorem 3.
	Sources int
	// Isolated counts degree-0 vertices.
	Isolated int
}

// Stats computes DegreeStats in one pass.
func Stats(g *Graph) DegreeStats {
	n := g.NumVertices()
	st := DegreeStats{MinOut: int(^uint(0) >> 1)}
	if n == 0 {
		st.MinOut = 0
		return st
	}
	g.EnsureTranspose()
	var sum int64
	for u := 0; u < n; u++ {
		d := g.OutDegree(V(u))
		sum += int64(d)
		if d < st.MinOut {
			st.MinOut = d
		}
		if d > st.MaxOut {
			st.MaxOut = d
		}
		if g.Directed() {
			if d == 0 && g.InDegree(V(u)) == 0 {
				st.Isolated++
			}
			if g.InDegree(V(u)) == 0 && d == 1 {
				st.Sources++
			}
			if g.InDegree(V(u))+d == 1 {
				st.Degree1++
			}
		} else {
			switch d {
			case 0:
				st.Isolated++
			case 1:
				st.Degree1++
				st.Sources++
			}
		}
	}
	st.MeanOut = float64(sum) / float64(n)
	return st
}
