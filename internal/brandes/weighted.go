package brandes

import (
	"container/heap"

	"repro/internal/graph"
	"repro/internal/ws"
)

// Weighted betweenness centrality via Brandes' original Dijkstra
// formulation, which Serial runs on a weighted graph. The paper scopes APGRE
// to unweighted graphs; this engine is the weighted substrate our weighted
// APGRE extension (internal/core) is verified against. The parallel
// baselines count hops.
//
// Equality of path lengths uses exact float64 comparison: along a relaxation
// chain Dijkstra computes each distance as the same sum of the same weights,
// so ties between alternative shortest paths compare exactly when weights
// are integers or other values without rounding (the generators produce
// integer weights). Arbitrary float weights with near-ties may split σ
// counts; see DESIGN.md.

type wpqItem struct {
	d float64
	v graph.V
}

// wpq is a binary min-heap with lazy deletion.
type wpq []wpqItem

func (q wpq) Len() int           { return len(q) }
func (q wpq) Less(i, j int) bool { return q[i].d < q[j].d }
func (q wpq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *wpq) Push(x any)        { *q = append(*q, x.(wpqItem)) }
func (q *wpq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// runSourceDijkstra is runSourceSuccs with Dijkstra in place of BFS, on the
// sweep's weighted arrays (FDist, Done): it adds source s's dependencies into
// bc and sparse-resets what it touched. g must be weighted.
func (st *serialScratch) runSourceDijkstra(g *graph.Graph, s graph.V, bc []float64) {
	dist, rec, done := st.sw.FDist, st.sw.Rec, st.sw.Done
	order := st.sw.Order[:0]
	st.pq = st.pq[:0]
	dist[s] = 0
	rec[s].Sigma = 1
	heap.Push(&st.pq, wpqItem{0, s})
	for st.pq.Len() > 0 {
		it := heap.Pop(&st.pq).(wpqItem)
		v := it.v
		if done[v] || it.d != dist[v] {
			continue // stale heap entry
		}
		done[v] = true
		order = append(order, v)
		wts := g.OutWeights(v)
		for i, w := range g.Out(v) {
			nd := dist[v] + wts[i]
			switch {
			case dist[w] < 0 || nd < dist[w]:
				dist[w] = nd
				rec[w].Sigma = rec[v].Sigma
				heap.Push(&st.pq, wpqItem{nd, w})
			case nd == dist[w]:
				rec[w].Sigma += rec[v].Sigma
			}
		}
	}
	st.sw.Order = order
	// Backward: successor pull in reverse settled order.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var acc float64
		wts := g.OutWeights(v)
		for k, w := range g.Out(v) {
			if dist[w] == dist[v]+wts[k] {
				acc += rec[v].Sigma / rec[w].Sigma * (1 + rec[w].Di2i)
			}
		}
		rec[v].Di2i = acc
		if v != s {
			bc[v] += acc
		}
	}
	for _, v := range order {
		dist[v] = -1
		rec[v] = ws.Record{}
		done[v] = false
	}
}

// weightedSerial is Serial on a weighted graph: one Dijkstra sweep per
// source (O(n·(m log n)) time).
func weightedSerial(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	st := newSerialScratch(g, false)
	st.sw.GrowWeighted(n)
	for s := graph.V(0); int(s) < n; s++ {
		st.runSourceDijkstra(g, s, bc)
	}
	st.release()
	return bc
}
