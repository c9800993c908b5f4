package core

import (
	"math/bits"

	"repro/internal/bfs"
	"repro/internal/bitset"
	"repro/internal/decompose"
	"repro/internal/ws"
)

// sweepPool is the process-wide sweep-workspace arena (internal/ws): every
// engine in this package checks its per-vertex scratch out of it and returns
// it with the clean-slot invariants restored, so warm steady-state
// computation — repeated ComputeDecomposed calls, incremental updates, approx
// batches, bcd requests — performs zero per-sweep heap allocation.
var sweepPool ws.Pool

// SweepPoolStats exposes the arena's gauges (sweeps created, sweeps checked
// out) for serving telemetry — bcd publishes them as bcd_ws_pool_size and
// bcd_ws_in_use on /metrics.
func SweepPoolStats() (size, inUse int) { return sweepPool.Stats() }

// hybridMinVerts gates the direction-optimizing σ-BFS: below this size the
// bottom-up word scan costs more than it saves, and the transpose CSR is not
// worth building.
const hybridMinVerts = 256

// resolveFrac maps Options.BottomUpFrac to the effective threshold: 0 means
// the shared default, negative disables bottom-up sweeps entirely.
func resolveFrac(f float64) float64 {
	switch {
	case f == 0:
		return bfs.DefaultBottomUpFrac
	case f < 0:
		return 0
	default:
		return f
	}
}

// unvisitedWord returns the complement of the visited word wi restricted to
// valid vertex ids below n; base is wi*64.
func unvisitedWord(visited *bitset.Bitset, wi, n int) (word uint64, base int) {
	base = wi << 6
	word = ^visited.Word(wi)
	if rem := n - base; rem < 64 {
		word &= ^uint64(0) >> (64 - uint(rem))
	}
	return word, base
}

// The four-dependency backward step is the same in every kernel: each DAG
// vertex pulls from its successors (out-neighbours one level, or one
// shortest-path arc, deeper) and then settles — folding in the
// articulation-point seeds, storing its δ values and merging its BC
// contribution (rootTerms.settle). Folding the seeds into the backward step
// means the δ arrays never need clearing: every visited vertex's slots are
// assigned exactly once per root.

// rootTerms is the root-dependent part of the backward step: the sweep
// root's boundary terms and the scratch the per-vertex tail writes. The BFS
// and Dijkstra kernels fill one per root and call settle for every vertex
// they unwind; internal/msbfs keeps the only other copy of this arithmetic,
// strided over lanes.
type rootTerms struct {
	sg               *decompose.Subgraph
	di2i, di2o, do2o []float64
	bc               []float64
	s                int32
	sIsArt, directed bool
	betaS, gammaS    float64
}

func newRootTerms(sg *decompose.Subgraph, s int32, directed bool, w *ws.Sweep) rootTerms {
	return rootTerms{
		sg: sg, di2i: w.Di2i, di2o: w.Di2o, do2o: w.Do2o, bc: w.BC,
		s: s, sIsArt: sg.IsArt[s], directed: directed,
		betaS: sg.Beta[s], gammaS: float64(sg.Gamma[s]),
	}
}

// settle finishes vertex v of the backward sweep given the successor sums
// the kernel accumulated for it (o2o is only meaningful when the root is an
// articulation point): δ_i2o seeds α(v) at every reachable AP (Eq. 4's init)
// and δ_o2o seeds β(s)·α(v) when the root is itself an AP (Eq. 6's init);
// then the Eq. 7 merge into the sub-graph's local BC.
func (rt *rootTerms) settle(v int32, i2i, i2o, o2o float64) {
	sg := rt.sg
	if v != rt.s && sg.IsArt[v] {
		i2o += sg.Alpha[v] // δ_i2o seed (Eq. 4)
		if rt.sIsArt {
			o2o += rt.betaS * sg.Alpha[v] // δ_o2o seed (Eq. 6)
		}
	}
	rt.di2i[v], rt.di2o[v] = i2i, i2o
	if rt.sIsArt {
		rt.do2o[v] = o2o
	}
	if v != rt.s {
		contrib := (1+rt.gammaS)*(i2i+i2o) + o2o
		if rt.sIsArt {
			contrib += rt.betaS * i2i // δ_o2i = β(s)·δ_i2i (Eq. 5)
		}
		rt.bc[v] += contrib
	} else if rt.gammaS > 0 {
		root := i2i + i2o
		if rt.sIsArt {
			// Folded-leaf paths to every target outside the sub-graph pass
			// through s itself when s is a boundary AP; the δ_i2o seeds
			// exclude v == s, so add α(s) here (a gap in the paper's Eq. 7 —
			// see DESIGN.md §1).
			root += sg.Alpha[rt.s]
		}
		if !rt.directed {
			// Undirected correction (DESIGN.md §1): each folded leaf is itself
			// a reachable target of the root recursion and must not count
			// toward its own dependency.
			root--
		}
		rt.bc[v] += rt.gammaS * root
	}
}

// bfsRoot executes Algorithm 2 for one root s of an unweighted sub-graph:
// forward σ BFS, then the backward four-dependency accumulation and BC merge
// (Eq. 7).
//
// e.frac > 0 (set per sub-graph by ensure, which also builds the in-CSR)
// enables the direction-optimizing forward sweep: a level whose frontier
// exceeds e.frac of the still-unvisited vertices runs bottom-up over the
// visited bitset's complement (scanning in-arcs via sg.In), the rest run
// top-down. Either mode yields bit-identical output: σ path counts are
// integer-valued (exact float64 sums, order-independent), dist is
// mode-independent, and the backward phase only needs `order` grouped by
// non-decreasing level — within-level permutations cannot change any value
// it computes.
func (e *engine) bfsRoot(sg *decompose.Subgraph, s int32, directed bool) {
	dist, sigma := e.ws.Dist, e.ws.Sigma
	di2i, di2o, do2o := e.ws.Di2i, e.ws.Di2o, e.ws.Do2o
	visited := e.ws.Visited
	n := sg.NumVerts()
	hybrid := e.frac > 0

	// Phase 1: forward BFS counting shortest paths, level by level. order is
	// grouped by level (non-decreasing dist), which is all phase 2 needs.
	order := append(e.ws.Order[:0], s)
	dist[s] = 0
	sigma[s] = 1
	if hybrid {
		visited.Set(int(s))
	}
	for d, lo, hi := int32(1), 0, 1; lo < hi; d++ {
		if hybrid && bfs.ShouldBottomUp(hi-lo, n-hi, e.frac) {
			// Bottom-up: every unvisited vertex scans its in-arcs for parents
			// one level up; σ is the sum over all such parents — the same
			// integer sum top-down accumulates edge by edge.
			for wi := 0; wi<<6 < n; wi++ {
				word, base := unvisitedWord(visited, wi, n)
				for word != 0 {
					tz := bits.TrailingZeros64(word)
					word &= word - 1
					v := int32(base + tz)
					var sv float64
					for _, u := range sg.In(v) {
						if dist[u] == d-1 {
							sv += sigma[u]
						}
					}
					if sv != 0 {
						dist[v] = d
						sigma[v] = sv
						visited.Set(int(v))
						order = append(order, v)
					}
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				u := order[i]
				du1 := dist[u] + 1
				for _, w := range sg.Out(u) {
					if dist[w] < 0 {
						dist[w] = du1
						if hybrid {
							visited.Set(int(w))
						}
						order = append(order, w)
					}
					if dist[w] == du1 {
						sigma[w] += sigma[u]
					}
				}
			}
		}
		lo, hi = hi, len(order)
	}
	e.ws.Order = order

	// Phase 2: backward accumulation in reverse BFS order.
	rt := newRootTerms(sg, s, directed, e.ws)
	sIsArt := rt.sIsArt
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var i2i, i2o, o2o float64
		sv := sigma[v]
		dv1 := dist[v] + 1
		for _, w := range sg.Out(v) {
			if dist[w] == dv1 {
				r := sv / sigma[w]
				i2i += r * (1 + di2i[w])
				i2o += r * di2o[w]
				if sIsArt {
					o2o += r * do2o[w]
				}
			}
		}
		rt.settle(v, i2i, i2o, o2o)
	}

	// Sparse reset: only dist, sigma and visited carry state across roots,
	// and order is exactly the dirty list — O(touched), the pool's lazy-reset
	// contract. traversed keeps its pre-hybrid definition — Σ outdeg over
	// visited vertices (what a pure top-down sweep examines) — so the work
	// metric stays comparable across scheduler and sweep-mode choices.
	for _, v := range order {
		e.traversed += int64(len(sg.Out(v)))
		dist[v] = -1
		sigma[v] = 0
	}
	if hybrid {
		for _, v := range order {
			visited.Clear(int(v))
		}
	}
}
