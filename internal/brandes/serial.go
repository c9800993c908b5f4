// Package brandes implements Brandes' exact betweenness centrality algorithm
// and the six published baselines the paper benchmarks against (§5.1):
// preds-serial [12], preds [12], succs [13], locksyncfree [14], async [11]
// and hybrid [25]/[33]. They share one signature and one table, Baselines,
// which every caller that runs a baseline by name ranges over; the four
// fine-grained parallel variants share one level-synchronous sweep (sweep)
// and differ only in their level step and backward phase. It holds no
// sampler: approximate BC is internal/approx, which is exact at full budget.
//
// Conventions: scores follow the directed-sum definition
// BC(v) = Σ_{s≠v≠t} σ_st(v)/σ_st over ordered pairs; undirected graphs count
// each unordered pair in both directions (no ÷2), matching the paper's usage.
// Unreachable pairs contribute zero. σ counts use float64, which is exact for
// path counts below 2^53 and standard practice for BC implementations; a σ
// that reaches +Inf ends the run with graph.ErrPathCountOverflow.
package brandes

import (
	"math"

	"repro/internal/graph"
	"repro/internal/ws"
)

// Baseline is one of the paper's baselines, named by the Algorithm string
// the repro facade gives it.
type Baseline struct {
	Name string
	// Run computes exact BC with up to workers goroutines (<= 0 means
	// GOMAXPROCS; serial ignores it). Every baseline but serial counts hops
	// and refuses a weighted graph; async also refuses a directed one.
	Run func(g *graph.Graph, workers int) ([]float64, error)
}

// Baselines is the one table of the paper's baselines, in its Table 2 order.
var Baselines = []Baseline{
	{"serial", serial},
	{"preds", preds},
	{"succs", succs},
	{"locksyncfree", lockSyncFree},
	{"async", async},
	{"hybrid", hybrid},
}

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

// predLists is CSR-style predecessor storage. A vertex's predecessors are a
// subset of its in-neighbours, so in-degrees bound each list; n[v] is v's
// list length, which every sweep zeroes again over the vertices it visited.
type predLists struct {
	offs []int64
	buf  []graph.V
	n    []int32
}

func newPredLists(g *graph.Graph) predLists {
	g.EnsureTranspose()
	nv := g.NumVertices()
	pl := predLists{offs: make([]int64, nv+1), n: make([]int32, nv)}
	for v := range nv {
		pl.offs[v+1] = pl.offs[v] + int64(g.InDegree(graph.V(v)))
	}
	pl.buf = make([]graph.V, pl.offs[nv])
	return pl
}

// of returns v's predecessors.
func (pl *predLists) of(v graph.V) []graph.V {
	lo := pl.offs[v]
	return pl.buf[lo : lo+int64(pl.n[v])]
}

// serialScratch bundles the pooled sweep with the predecessor lists Serial
// needs (sized by the graph's in-degrees, so per-graph rather than pooled).
type serialScratch struct {
	sw *ws.Sweep
	pl predLists
	pq wpq // Dijkstra's heap, weighted graphs only
}

func newSerialScratch(g *graph.Graph, preds bool) *serialScratch {
	st := &serialScratch{sw: sweepPool.Get(g.NumVertices())}
	if preds {
		st.pl = newPredLists(g)
	}
	return st
}

func (st *serialScratch) release() {
	sweepPool.Put(st.sw)
	st.sw = nil
}

// forward is the BFS both serial sweeps start from s with: σ counted, and
// each vertex's predecessors recorded when st has lists (Serial). Each σ is
// tested once, when its vertex leaves the queue and every predecessor has
// been expanded; a σ of +Inf stops it with graph.ErrPathCountOverflow.
func (st *serialScratch) forward(g *graph.Graph, s graph.V) (err error) {
	dist, rec, pl := st.sw.Dist, st.sw.Rec, &st.pl
	dist[s] = 0
	rec[s].Sigma = 1
	order := append(st.sw.Order[:0], s)
	for head := 0; head < len(order); head++ {
		u := order[head]
		if math.IsInf(rec[u].Sigma, 1) {
			err = graph.ErrPathCountOverflow
			break
		}
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
			if dist[v] == dist[u]+1 {
				rec[v].Sigma += rec[u].Sigma
				if pl.n != nil {
					pl.buf[pl.offs[v]+int64(pl.n[v])] = u
					pl.n[v]++
				}
			}
		}
	}
	st.sw.Order = order
	return err
}

// reset is the sparse reset over the visit order, the dirty list: only the
// visited vertices carry state, so warm sweeps do not allocate.
func (st *serialScratch) reset() {
	for _, v := range st.sw.Order {
		st.sw.Dist[v] = -1
		st.sw.Rec[v] = ws.Record{}
		if st.pl.n != nil {
			st.pl.n[v] = 0
		}
	}
}

// runSource executes one predecessor-list Brandes sweep from s, adding the
// source's dependencies into bc, or returns the overflow forward found,
// having added nothing.
func (st *serialScratch) runSource(g *graph.Graph, s graph.V, bc []float64) error {
	err := st.forward(g, s)
	rec, order := st.sw.Rec, st.sw.Order
	for i := len(order) - 1; i > 0 && err == nil; i-- {
		v := order[i]
		coef := (1 + rec[v].Di2i) / rec[v].Sigma
		for _, u := range st.pl.of(v) {
			rec[u].Di2i += rec[u].Sigma * coef
		}
		bc[v] += rec[v].Di2i
	}
	st.reset()
	return err
}

// runSourceSuccs executes one successor-pull Brandes sweep from s (no
// predecessor lists; the backward sweep re-derives DAG successors from the
// distance array), as runSource does. Every async worker runs it.
func (st *serialScratch) runSourceSuccs(g *graph.Graph, s graph.V, bc []float64) error {
	err := st.forward(g, s)
	dist, rec, order := st.sw.Dist, st.sw.Rec, st.sw.Order
	for i := len(order) - 1; i >= 0 && err == nil; i-- {
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
	st.reset()
	return err
}

// serial is the textbook sequential Brandes algorithm with predecessor lists
// ("preds-serial", the baseline every speedup in the paper is relative to). A
// weighted graph is swept with Dijkstra instead of BFS (weighted.go), so
// serial is the exact oracle for every graph core.Compute accepts. It runs one
// source at a time whatever workers says.
func serial(g *graph.Graph, _ int) ([]float64, error) {
	n := g.NumVertices()
	bc := make([]float64, n)
	st := newSerialScratch(g, !g.Weighted())
	defer st.release()
	run := st.runSource
	if g.Weighted() {
		st.sw.GrowWeighted(n)
		run = st.runSourceDijkstra
	}
	for s := graph.V(0); int(s) < n; s++ {
		if err := run(g, s, bc); err != nil {
			return nil, err
		}
	}
	return bc, nil
}

// Serial is serial as the oracle the tests and the benchmark hold every
// engine to: it has no error to return, so on a graph whose path counts
// overflow float64 it panics with graph.ErrPathCountOverflow rather than
// return wrong scores (Baselines' "serial" entry returns the error).
func Serial(g *graph.Graph) []float64 {
	bc, err := serial(g, 1)
	if err != nil {
		panic(err)
	}
	return bc
}
