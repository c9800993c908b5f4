package closeness

import (
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
)

// The distance-sum DP. For each incidence (sub-graph SGj, boundary AP a)
// define the directed quantity
//
//	E(a→SGj) = Σ_{t in the tree component on SGj's side of the edge} dist(a, t)
//	         = W_j(a) + Σ_{b ∈ A_j, b≠a} [ dist_j(a,b)·α_j(b) + S_j(b) ]
//
// with W_j(a) = Σ_{t∈SGj} dist_j(a,t) and S_j(b) = Σ_{SGk ∋ b, k≠j} E(b→SGk).
// The sub-graph/AP incidence structure is a forest, so the dependencies are
// acyclic and one memoized traversal computes every E.
type distDP struct {
	d *decompose.Decomposition
	// per sub-graph, parallel to sg.Arts: W_j(a) and dist_j(a, b) tables.
	w      [][]float64
	distAP [][][]int32
	// incidences of each boundary AP: (sub-graph index, position in Arts).
	incsOf map[graph.V][]incRef
	// e[si][k] = E(a→SG_si) for a = Arts[k].
	e [][]float64
	// done[si][k] marks computed entries.
	done [][]bool
}

type incRef struct {
	si int
	k  int // index into Subgraphs[si].Arts
}

// buildDistanceDP precomputes the per-sub-graph AP distance tables (one BFS
// per AP per sub-graph, spread over the workers) and resolves the DP.
func buildDistanceDP(d *decompose.Decomposition, workers int) *distDP {
	dp := &distDP{
		d:      d,
		w:      make([][]float64, len(d.Subgraphs)),
		distAP: make([][][]int32, len(d.Subgraphs)),
		incsOf: map[graph.V][]incRef{},
		e:      make([][]float64, len(d.Subgraphs)),
		done:   make([][]bool, len(d.Subgraphs)),
	}
	for si, sg := range d.Subgraphs {
		dp.w[si] = make([]float64, len(sg.Arts))
		dp.distAP[si] = make([][]int32, len(sg.Arts))
		dp.e[si] = make([]float64, len(sg.Arts))
		dp.done[si] = make([]bool, len(sg.Arts))
		for k, la := range sg.Arts {
			dp.incsOf[sg.Verts[la]] = append(dp.incsOf[sg.Verts[la]], incRef{si, k})
		}
	}

	// Per-AP BFS tables, one (sub-graph, AP) item at a time.
	var items []item
	for si, sg := range d.Subgraphs {
		for k := range sg.Arts {
			items = append(items, item{int32(si), int32(k)})
		}
	}
	p := par.Workers(workers)
	scratches := make([]*bfsScratch, p)
	for w := range scratches {
		scratches[w] = new(bfsScratch)
	}
	par.ForWorker(len(items), p, itemGrain, func(wk, i int) {
		sc := scratches[wk]
		it := items[i]
		sg := d.Subgraphs[it.si]
		sc.ensure(sg.NumVerts())
		dp.w[it.si][it.k], _ = sc.bfsSums(sg, sg.Arts[it.k])
		row := make([]int32, len(sg.Arts))
		for k2, lb := range sg.Arts {
			row[k2] = sc.dist[lb] // -1 if unreachable (cannot happen: connected)
		}
		dp.distAP[it.si][it.k] = row
		sc.sparseReset()
	})

	dp.resolve()
	return dp
}

// resolve computes every E with an explicit-stack memoized traversal.
func (dp *distDP) resolve() {
	type frame struct{ si, k int }
	var stack []frame
	for si := range dp.e {
		for k := range dp.e[si] {
			if dp.done[si][k] {
				continue
			}
			stack = append(stack[:0], frame{si, k})
			for len(stack) > 0 {
				f := stack[len(stack)-1]
				if dp.done[f.si][f.k] {
					stack = stack[:len(stack)-1]
					continue
				}
				// Dependencies: for every other AP b of SG_f.si, every
				// incidence of b outside SG_f.si.
				ready := true
				sg := dp.d.Subgraphs[f.si]
				for k2 := range sg.Arts {
					if k2 == f.k {
						continue
					}
					for _, inc := range dp.incsOf[sg.Verts[sg.Arts[k2]]] {
						if inc.si == f.si {
							continue
						}
						if !dp.done[inc.si][inc.k] {
							stack = append(stack, frame{inc.si, inc.k})
							ready = false
						}
					}
				}
				if !ready {
					continue
				}
				// All inputs available: evaluate.
				val := dp.w[f.si][f.k]
				for k2, lb := range sg.Arts {
					if k2 == f.k {
						continue
					}
					dAB := dp.distAP[f.si][f.k][k2]
					if dAB < 0 {
						continue
					}
					val += float64(dAB)*sg.Alpha[lb] + dp.sBeyond(f.si, sg.Verts[lb])
				}
				dp.e[f.si][f.k] = val
				dp.done[f.si][f.k] = true
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// sBeyond returns S_j(b) = Σ_{SGk ∋ b, k≠j} E(b→SGk), which is also the
// cross term the farness assembly adds per boundary AP b: Σ_{t beyond b, away
// from SG_j} dist(b, t). Callers guarantee the inputs are resolved.
func (dp *distDP) sBeyond(si int, b graph.V) float64 {
	var s float64
	for _, inc := range dp.incsOf[b] {
		if inc.si != si {
			s += dp.e[inc.si][inc.k]
		}
	}
	return s
}
