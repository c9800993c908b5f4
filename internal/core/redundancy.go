package core

import (
	"math/rand"

	"repro/internal/decompose"
	"repro/internal/graph"
)

// RedundancyReport is the Figure 7 measurement: how Brandes' total work
// splits into effective computation, partial redundancy (re-traversals of
// common sub-DAGs that APGRE reuses) and total redundancy (whole DAGs of
// γ-folded vertices that APGRE never builds). Formulas per DESIGN.md §4:
//
//	W      = Σ_s m(s)                     — Brandes' work (arcs per DAG)
//	W_tot  = Σ_{u removed} m(u)           — folded roots' DAGs
//	W_eff  = Σ_SGi Σ_{s∈R_SGi} m_SGi(s)   — APGRE's per-sub-graph sweeps,
//	                                        in swept arcs (Subgraph.NumArcs)
//	partial = (W - W_tot - W_eff) / W
//
// The arcs to and from folded leaves that the remaining roots no longer walk
// (their terms are a closed-form seed) are in W and in neither W_tot nor
// W_eff, so they count as partial redundancy.
type RedundancyReport struct {
	BrandesWork   int64
	EffectiveWork int64
	TotalRedWork  int64
	// Effective + Partial + Total ≈ 1.
	Effective, Partial, Total float64
	// Sampled reports whether directed reachability was estimated from a
	// source sample rather than computed exactly (undirected graphs are
	// always exact: every BFS covers the whole connected component).
	Sampled bool
}

// AnalyzeRedundancy measures the redundancy split for g's decomposition.
// sampleK bounds the number of BFS probes used on directed graphs
// (<= 0 means 256); undirected graphs are analyzed exactly in O(V+E).
func AnalyzeRedundancy(g *graph.Graph, d *decompose.Decomposition, sampleK int, seed int64) *RedundancyReport {
	if sampleK <= 0 {
		sampleK = 256
	}
	rep := &RedundancyReport{}
	n := g.NumVertices()
	if n == 0 {
		return rep
	}
	removed := removedVertices(d, n)

	if !g.Directed() {
		// Exact: a BFS from any vertex traverses every arc of its component.
		labels, count := graph.ConnectedComponents(g)
		compArcs := make([]int64, count)
		for v := 0; v < n; v++ {
			compArcs[labels[v]] += int64(g.OutDegree(graph.V(v)))
		}
		for v := 0; v < n; v++ {
			rep.BrandesWork += compArcs[labels[v]]
			if removed[v] {
				rep.TotalRedWork += compArcs[labels[v]]
			}
		}
		for _, sg := range d.Subgraphs {
			rep.EffectiveWork += int64(len(sg.Roots)) * sg.NumArcs()
		}
	} else {
		rep.Sampled = true
		r := rand.New(rand.NewSource(seed))
		// W: sample sources uniformly.
		rep.BrandesWork = int64(float64(n) * meanReachableArcs(g, sampleSources(r, n, sampleK)))
		// W_tot: folded vertices u have m(u) = 1 + m(out-neighbour).
		var removedList []graph.V
		for v := 0; v < n; v++ {
			if removed[v] {
				removedList = append(removedList, graph.V(v))
			}
		}
		if len(removedList) > 0 {
			k := sampleK
			if k > len(removedList) {
				k = len(removedList)
			}
			r.Shuffle(len(removedList), func(i, j int) {
				removedList[i], removedList[j] = removedList[j], removedList[i]
			})
			var sum float64
			for _, u := range removedList[:k] {
				sum += 1 + reachableArcs(g, g.Out(u)[0])
			}
			rep.TotalRedWork = int64(sum / float64(k) * float64(len(removedList)))
		}
		// W_eff: stratified per-sub-graph root sampling.
		var totalRoots int64
		for _, sg := range d.Subgraphs {
			totalRoots += int64(len(sg.Roots))
		}
		for _, sg := range d.Subgraphs {
			nr := len(sg.Roots)
			if nr == 0 {
				continue
			}
			k := int(int64(sampleK) * int64(nr) / maxI64(totalRoots, 1))
			if k < 1 {
				k = 1
			}
			if k > nr {
				k = nr
			}
			var sum float64
			for i := 0; i < k; i++ {
				s := sg.Roots[r.Intn(nr)]
				sum += subgraphReachableArcs(sg, s)
			}
			rep.EffectiveWork += int64(sum / float64(k) * float64(nr))
		}
	}

	if rep.BrandesWork > 0 {
		w := float64(rep.BrandesWork)
		rep.Effective = float64(rep.EffectiveWork) / w
		rep.Total = float64(rep.TotalRedWork) / w
		rep.Partial = 1 - rep.Effective - rep.Total
		if rep.Partial < 0 {
			rep.Partial = 0
		}
	}
	return rep
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// removedVertices marks vertices folded out of the root set by γ: each
// sub-graph's local ids past its swept ones.
func removedVertices(d *decompose.Decomposition, n int) []bool {
	removed := make([]bool, n)
	for _, sg := range d.Subgraphs {
		for _, v := range sg.Verts[len(sg.Roots):] {
			removed[v] = true
		}
	}
	return removed
}

func sampleSources(r *rand.Rand, n, k int) []graph.V {
	if k >= n {
		out := make([]graph.V, n)
		for i := range out {
			out[i] = graph.V(i)
		}
		return out
	}
	out := make([]graph.V, k)
	for i := range out {
		out[i] = graph.V(r.Intn(n))
	}
	return out
}

func meanReachableArcs(g *graph.Graph, sources []graph.V) float64 {
	var sum float64
	for _, s := range sources {
		sum += reachableArcs(g, s)
	}
	if len(sources) == 0 {
		return 0
	}
	return sum / float64(len(sources))
}

// reachableArcs counts the arcs Brandes' forward BFS from s would scan:
// the out-degrees of all vertices reachable from s.
func reachableArcs(g *graph.Graph, s graph.V) float64 {
	n := g.NumVertices()
	seen := make([]bool, n)
	stack := []graph.V{s}
	seen[s] = true
	var arcs int64
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		arcs += int64(g.OutDegree(u))
		for _, v := range g.Out(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return float64(arcs)
}

// subgraphReachableArcs is reachableArcs over a sub-graph's local CSR.
func subgraphReachableArcs(sg *decompose.Subgraph, s int32) float64 {
	seen := make([]bool, sg.NumVerts())
	stack := []int32{s}
	seen[s] = true
	var arcs int64
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := sg.Out(u)
		arcs += int64(len(out))
		for _, v := range out {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return float64(arcs)
}
