package core

import (
	"container/heap"

	"repro/internal/decompose"
)

// Weighted APGRE — our extension of the paper beyond its unweighted scope.
// Every structural ingredient survives positive edge weights unchanged:
// articulation points still factor shortest-path counts
// (σ_st = σ_sa·σ_at), α/β/γ are reachability counts independent of weights,
// and the four-dependency recursions only ever use σ ratios along DAG arcs.
// Only the traversal changes: Dijkstra replaces BFS for σ/dist, and the
// backward sweep runs in reverse settled order instead of reverse levels.
// Scheduling is the same unit queue as the unweighted path (sched.go), and
// Compute picks dijkstraRoot whenever g.Weighted().

type wheapItem struct {
	d float64
	v int32
}

type wheap []wheapItem

func (q wheap) Len() int           { return len(q) }
func (q wheap) Less(i, j int) bool { return q[i].d < q[j].d }
func (q wheap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *wheap) Push(x any)        { *q = append(*q, x.(wheapItem)) }
func (q *wheap) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstraRoot is Algorithm 2 with Dijkstra: the same four-dependency
// backward accumulation as bfsRoot, over the settled order. It uses the
// sweep's weighted extension (FDist for float distances, Done for settled
// flags); only the heap is engine-private.
func (e *engine) dijkstraRoot(sg *decompose.Subgraph, s int32, directed bool) {
	dist, rec := e.ws.FDist, e.ws.Rec
	done := e.ws.Done

	// Phase 1: Dijkstra with σ counting.
	order := e.ws.Order[:0]
	e.pq = e.pq[:0]
	dist[s] = 0
	rec[s].Sigma = 1
	heap.Push(&e.pq, wheapItem{0, s})
	for e.pq.Len() > 0 {
		it := heap.Pop(&e.pq).(wheapItem)
		v := it.v
		if done[v] || it.d != dist[v] {
			continue
		}
		done[v] = true
		order = append(order, v)
		out := sg.Out(v)
		wts := sg.OutWeights(v)
		e.traversed += int64(len(out))
		for i, w := range out {
			nd := dist[v] + wts[i]
			switch {
			case dist[w] < 0 || nd < dist[w]:
				dist[w] = nd
				rec[w].Sigma = rec[v].Sigma
				heap.Push(&e.pq, wheapItem{nd, w})
			case nd == dist[w]:
				rec[w].Sigma += rec[v].Sigma
			}
		}
	}
	e.ws.Order = order

	// Phase 2: backward four-dependency accumulation (cf. bfsRoot).
	rt := newRootTerms(sg, s, directed, e.ws)
	sIsArt := rt.sIsArt
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var i2i, i2o, o2o float64
		sv := rec[v].Sigma
		out := sg.Out(v)
		wts := sg.OutWeights(v)
		for k, w := range out {
			if dist[w] == dist[v]+wts[k] {
				rw := &rec[w]
				r := sv / rw.Sigma
				i2i += r * (1 + rw.Di2i)
				i2o += r * rw.Di2o
				if sIsArt {
					o2o += r * rw.Do2o
				}
			}
		}
		rt.settle(v, i2i, i2o, o2o)
	}

	// Sparse reset over the settled order (the dirty list); σ is assigned on
	// first relaxation, so it carries nothing across roots.
	for _, v := range order {
		dist[v] = -1
		done[v] = false
	}
}
