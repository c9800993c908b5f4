// Package closeness computes closeness centrality, and demonstrates that the
// paper's articulation-point decomposition accelerates centralities beyond
// betweenness: for any vertex s in sub-graph SGi and any target t beyond a
// boundary articulation point a, dist(s,t) = dist_SGi(s,a) + dist(a,t), so
// one BFS per vertex *within its sub-graph* plus a distance-sum DP over the
// sub-graph/articulation-point tree replaces one BFS per vertex over the
// whole graph. The γ total-redundancy folding carries over too: a degree-1
// leaf u attached to s has farness(u) = farness(s) + n_component − 2.
package closeness

import (
	"fmt"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
)

// Result holds per-vertex closeness data. Farness is the sum of distances to
// every reachable vertex; Reach the number of reachable vertices (excluding
// the vertex itself); Closeness the classic (Reach)/(Farness) score
// normalized by component, i.e. Reach²/((n-1)·Farness) in Wasserman–Faust
// form is left to callers — we report the simple Reach/Farness, 0 for
// isolated vertices.
type Result struct {
	Farness   []float64
	Reach     []int64
	Closeness []float64
}

func newResult(n int) *Result {
	return &Result{
		Farness:   make([]float64, n),
		Reach:     make([]int64, n),
		Closeness: make([]float64, n),
	}
}

func (r *Result) finish() {
	for v := range r.Farness {
		if r.Farness[v] > 0 {
			r.Closeness[v] = float64(r.Reach[v]) / r.Farness[v]
		}
	}
}

// Exact computes closeness with one BFS per vertex (the baseline the
// decomposed variant is verified against). Works for directed graphs too,
// summing over forward-reachable targets.
func Exact(g *graph.Graph, workers int) *Result {
	n := g.NumVertices()
	res := newResult(n)
	p := par.Workers(workers)
	type scratch struct {
		dist  []int32
		queue []graph.V
	}
	scratches := make([]*scratch, p)
	par.ForWorker(n, p, 64, func(w, si int) {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{dist: make([]int32, n)}
			for i := range sc.dist {
				sc.dist[i] = -1
			}
			scratches[w] = sc
		}
		s := graph.V(si)
		sc.queue = append(sc.queue[:0], s)
		sc.dist[s] = 0
		var far float64
		var reach int64
		for head := 0; head < len(sc.queue); head++ {
			u := sc.queue[head]
			for _, v := range g.Out(u) {
				if sc.dist[v] < 0 {
					sc.dist[v] = sc.dist[u] + 1
					far += float64(sc.dist[v])
					reach++
					sc.queue = append(sc.queue, v)
				}
			}
		}
		res.Farness[s] = far
		res.Reach[s] = reach
		for _, v := range sc.queue {
			sc.dist[v] = -1
		}
	})
	res.finish()
	return res
}

// Options configures Decomposed.
type Options struct {
	Workers   int
	Threshold int
}

// Decomposed computes exact closeness on an undirected graph through the
// articulation-point decomposition. Directed graphs are rejected (forward
// and reverse distance sums would need separate DPs; future work), and so
// are weighted ones: every distance here is a hop count.
func Decomposed(g *graph.Graph, opt Options) (*Result, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("closeness: weighted graphs are not supported; closeness counts hops")
	}
	if g.Directed() {
		return nil, fmt.Errorf("closeness: Decomposed requires an undirected graph")
	}
	n := g.NumVertices()
	res := newResult(n)
	if n == 0 {
		return res, nil
	}
	d, err := decompose.Decompose(g, decompose.Options{Threshold: opt.Threshold})
	if err != nil {
		return nil, err
	}
	labels, compCount := graph.ConnectedComponents(g)
	compSize := make([]int64, compCount)
	for _, l := range labels {
		compSize[l]++
	}

	dp := buildDistanceDP(d, opt.Workers)

	// Farness assembly: one BFS per root within its sub-graph, plus the
	// precomputed cross terms. The (sub-graph, root) items are spread over
	// the workers, so the top sub-graph fans out too; each farness is one
	// item's sum in a fixed order, so no score depends on the worker count.
	// A shared AP is assembled only in the first sub-graph SubgraphsOf lists.
	type cross struct {
		la    int32
		alpha float64
		s     float64
	}
	crosses := make([][]cross, len(d.Subgraphs))
	var items []item
	for si, sg := range d.Subgraphs {
		// For each boundary AP a: its beyond-count α and beyond-distance-sum S.
		for _, la := range sg.Arts {
			crosses[si] = append(crosses[si], cross{
				la:    la,
				alpha: sg.Alpha[la],
				s:     dp.sBeyond(si, sg.Verts[la]),
			})
		}
		for k, ls := range sg.Roots {
			if d.SubgraphsOf(sg.Verts[ls])[0] == int32(si) {
				items = append(items, item{int32(si), int32(k)})
			}
		}
	}
	p := par.Workers(opt.Workers)
	scratches := make([]*bfsScratch, p)
	for w := range scratches {
		scratches[w] = new(bfsScratch)
	}
	par.ForWorker(len(items), p, itemGrain, func(w, i int) {
		sc := scratches[w]
		it := items[i]
		sg := d.Subgraphs[it.si]
		sc.ensure(len(sg.Roots))
		ls := sg.Roots[it.k]
		far, _ := sc.bfsSums(sg, ls)
		for _, c := range crosses[it.si] {
			dla := sc.dist[c.la]
			if dla < 0 {
				continue // other component inside a (merged) sub-graph
			}
			far += float64(dla)*c.alpha + c.s
		}
		v := sg.Verts[ls]
		res.Farness[v] = far
		res.Reach[v] = compSize[labels[v]] - 1
		sc.sparseReset()
	})

	// γ-folded leaves, the local ids past the swept ones: farness(u) =
	// farness(s) + n_c − 2, s the vertex u was folded into.
	for _, sg := range d.Subgraphs {
		ns := len(sg.Roots)
		for l, v := range sg.Verts[ns:] {
			s := sg.Verts[sg.FoldedInto(int32(ns+l))]
			res.Farness[v] = res.Farness[s] + float64(compSize[labels[v]]-2)
			res.Reach[v] = compSize[labels[v]] - 1
		}
	}
	res.finish()
	return res, nil
}

// item is one BFS of the farness assembly or of the DP's AP tables: the k-th
// root or boundary AP of sub-graph si.
type item struct{ si, k int32 }

// itemGrain is how many items a worker claims at once.
const itemGrain = 16

// bfsScratch runs sub-graph-local BFS keeping the dist array for cross-term
// lookups until sparseReset; queue lists the vertices the last BFS reached.
type bfsScratch struct {
	alloc int
	dist  []int32
	queue []int32
}

func (sc *bfsScratch) ensure(n int) {
	if sc.alloc >= n {
		return
	}
	sc.alloc = n
	sc.dist = make([]int32, n)
	for i := range sc.dist {
		sc.dist[i] = -1
	}
}

// bfsSums BFSes sg from local root s and returns (Σ dist, #reached beyond s).
// The sub-graph's rows are its swept graph (decompose.Subgraph.Out): the
// γ(u) folded leaves at a reached vertex u are not in them and are counted in
// closed form, each one step past u. sc.dist stays valid until sparseReset.
func (sc *bfsScratch) bfsSums(sg *decompose.Subgraph, s int32) (float64, int64) {
	sc.sparseReset()
	// The loop keeps queue and dist in locals: the workers' scratch structs
	// may share a cache line, so no per-vertex write goes through sc.
	queue, dist := append(sc.queue, s), sc.dist
	dist[s] = 0
	var sum float64
	var reach int64
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if leaves := int64(sg.Gamma[u]); leaves > 0 {
			sum += float64(leaves * int64(dist[u]+1))
			reach += leaves
		}
		for _, v := range sg.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				sum += float64(dist[v])
				reach++
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue
	return sum, reach
}

func (sc *bfsScratch) sparseReset() {
	for _, v := range sc.queue {
		sc.dist[v] = -1
	}
	sc.queue = sc.queue[:0]
}
