// Package brandes implements Brandes' exact betweenness centrality algorithm
// and the published parallel variants the paper benchmarks against (§5.1):
// preds-serial [12], preds [12], succs [13], lockSyncFree [14], async [11]
// and hybrid [25]/[33]. It holds no sampler: approximate BC is
// internal/approx, which is exact at full budget.
//
// Conventions: scores follow the directed-sum definition
// BC(v) = Σ_{s≠v≠t} σ_st(v)/σ_st over ordered pairs; undirected graphs count
// each unordered pair in both directions (no ÷2), matching the paper's usage.
// Unreachable pairs contribute zero. σ counts use float64, which is exact for
// path counts below 2^53 and standard practice for BC implementations.
package brandes

import (
	"repro/internal/graph"
	"repro/internal/ws"
)

// sweepPool is this package's arena of pooled per-vertex sweep scratch: the
// serial baselines run one source sweep per call into a checked-out ws.Sweep
// and restore its clean-slot invariants with dirty-list sparse resets, so a
// warm per-source sweep performs zero heap allocations. (Sparse resets are
// bit-neutral versus the old full clears: a slot the previous source never
// touched already holds its initial value.)
//
// The pool is package-private on purpose: brandes accumulates σ and its δ
// (the record's Di2i field) in place, which needs a "zero everywhere"
// invariant the shared arena does not provide (the four-dependency engines
// assign both and leave the records dirty by design). Within this pool the
// invariant holds — fresh records are zero and every sweep here
// sparse-resets σ and δ over its visit order.
var sweepPool ws.Pool

// serialScratch bundles the pooled sweep with the CSR-style predecessor
// storage Serial needs (sized by the graph's in-degrees, so it is per-graph
// rather than pooled).
type serialScratch struct {
	sw       *ws.Sweep
	predOffs []int64
	predBuf  []graph.V
	predLen  []int32
	pq       wpq // Dijkstra's heap, weighted graphs only
}

func newSerialScratch(g *graph.Graph, preds bool) *serialScratch {
	n := g.NumVertices()
	st := &serialScratch{sw: sweepPool.Get(n)}
	if preds {
		// A vertex's predecessors are a subset of its in-neighbors, so
		// in-degrees bound the per-vertex capacity.
		g.EnsureTranspose()
		st.predOffs = make([]int64, n+1)
		for v := 0; v < n; v++ {
			st.predOffs[v+1] = st.predOffs[v] + int64(g.InDegree(graph.V(v)))
		}
		st.predBuf = make([]graph.V, st.predOffs[n])
		st.predLen = make([]int32, n)
	}
	return st
}

func (st *serialScratch) release() {
	sweepPool.Put(st.sw)
	st.sw = nil
}

// runSource executes one predecessor-list Brandes sweep from s, adding the
// source's dependencies into bc. All per-vertex state is restored by sparse
// resets over the visit order (the dirty list), so warm calls do not
// allocate.
func (st *serialScratch) runSource(g *graph.Graph, s graph.V, bc []float64) {
	dist, rec := st.sw.Dist, st.sw.Rec
	// Forward BFS: σ counting and predecessor collection.
	dist[s] = 0
	rec[s].Sigma = 1
	order := append(st.sw.Order[:0], s)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
			if dist[v] == dist[u]+1 {
				rec[v].Sigma += rec[u].Sigma
				st.predBuf[st.predOffs[v]+int64(st.predLen[v])] = u
				st.predLen[v]++
			}
		}
	}
	st.sw.Order = order
	// Backward accumulation over predecessors.
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		coef := (1 + rec[v].Di2i) / rec[v].Sigma
		lo := st.predOffs[v]
		for k := int32(0); k < st.predLen[v]; k++ {
			u := st.predBuf[lo+int64(k)]
			rec[u].Di2i += rec[u].Sigma * coef
		}
		bc[v] += rec[v].Di2i
	}
	// Sparse reset: only the visited vertices carry state.
	for _, v := range order {
		dist[v] = -1
		rec[v] = ws.Record{}
		st.predLen[v] = 0
	}
}

// Serial is the textbook sequential Brandes algorithm with predecessor lists
// ("preds-serial", the baseline every speedup in the paper is relative to).
// A weighted graph is swept with Dijkstra instead of BFS, so Serial is the
// exact oracle for every graph core.Compute accepts.
func Serial(g *graph.Graph) []float64 {
	if g.Weighted() {
		return weightedSerial(g)
	}
	n := g.NumVertices()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	st := newSerialScratch(g, true)
	for s := graph.V(0); int(s) < n; s++ {
		st.runSource(g, s, bc)
	}
	st.release()
	return bc
}

// runSourceSuccs executes one successor-pull Brandes sweep from s (no
// predecessor lists; the backward sweep re-derives DAG successors from the
// distance array), adding the source's dependencies into bc. Every Async
// worker runs it.
func (st *serialScratch) runSourceSuccs(g *graph.Graph, s graph.V, bc []float64) {
	dist, rec := st.sw.Dist, st.sw.Rec
	dist[s] = 0
	rec[s].Sigma = 1
	order := append(st.sw.Order[:0], s)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
			if dist[v] == dist[u]+1 {
				rec[v].Sigma += rec[u].Sigma
			}
		}
	}
	st.sw.Order = order
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var acc float64
		for _, w := range g.Out(v) {
			if dist[w] == dist[v]+1 {
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
	}
}
