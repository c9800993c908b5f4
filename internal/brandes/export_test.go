package brandes

import "repro/internal/graph"

// SerialSuccs is the sequential successor-pull formulation: no predecessor
// lists are stored; the backward sweep re-derives DAG successors from the
// distance array. It is the serial skeleton the succs/lockSyncFree parallel
// variants build on.
func SerialSuccs(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	st := newSerialScratch(g, false)
	defer st.release()
	for s := graph.V(0); int(s) < n; s++ {
		if err := st.runSourceSuccs(g, s, bc); err != nil {
			panic(err)
		}
	}
	return bc
}
