package core

import (
	"math"
	"math/bits"

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

// SweepPoolBytes is what the arena's sweeps hold, by layer — per-vertex
// arrays, lane arrays, tape — as of each one's last return to the pool; bcd
// publishes it as bcd_ws_bytes{layer}.
func SweepPoolBytes() ws.Bytes { return sweepPool.Bytes() }

// hybridMinVerts and hybridMinDegree gate the direction-optimizing sweep
// (sweepsHybrid). Below hybridMinVerts swept vertices a bottom-up level cannot
// beat the frontier expansion it replaces, and the transpose CSR is not worth
// building. Below hybridMinDegree swept arcs per swept vertex the rule's
// per-level upkeep — the two volume sums, the level table, the transpose —
// costs more than the bottom-up levels it finds save: over a ladder of
// lattices, community graphs, R-MATs and random graphs, rule ÷ forced top-down
// reads 1.02–1.14 on every lattice and on every input below 3.5 arcs per swept
// vertex, and 0.60–0.95 on every input from 6 up (DESIGN.md §4 "When the sweep
// is direction-optimizing"). Vars, not consts, only so tests can lower them and
// put fuzz-sized sparse sub-graphs through bottom-up and push levels; nothing
// outside test files writes them (ci.sh greps).
var hybridMinVerts = 256
var hybridMinDegree = 4

// sweepsHybrid says whether bfsRoot sweeps a swept graph of that many vertices
// and arcs direction-optimizing under the rule. ensure and the census read it,
// so what bcstats reports is what runs.
func sweepsHybrid(swept int, arcs int64) bool {
	return swept >= hybridMinVerts && arcs >= int64(hybridMinDegree)*int64(swept)
}

// direction pins the sweep's per-level direction choices, forward and
// backward. Callers cannot set it — the zero value, the edge-volume rule, is
// the only mode outside tests, which force the other two to prove the choice
// bit-neutral and to bound the rule's scan volume against pure top-down.
type direction int8

const (
	dirAuto     direction = iota // per level, whichever direction scans less (bfsRoot)
	dirTopDown                   // never bottom-up, so the backward pass only pulls
	dirBottomUp                  // every level bottom-up past hybridMinVerts, however sparse, so every level pushes
)

// The four-dependency backward step is the same in every kernel: each DAG
// vertex sums over its successors (out-neighbours one level, or one
// shortest-path arc, deeper) and then settles — folding in the
// articulation-point seeds, storing its δ values and merging its BC
// contribution (rootTerms.settle). Folding the seeds into the backward step
// means the δ fields never need clearing between roots: a visited vertex's
// record is assigned once per root, or — when bfsRoot has a level push to its
// parents — zeroed, accumulated into and then assigned. σ and the three δ of
// a vertex share one 32-byte ws.Record, so a successor costs one cache line,
// not four.

// rootTerms is the root-dependent part of the backward step: the sweep
// root's boundary terms and the scratch the per-vertex tail writes. The BFS
// and Dijkstra kernels fill one per root and call settle for the vertices
// they unwind; internal/msbfs keeps the only other copy of this arithmetic,
// strided over lanes.
type rootTerms struct {
	sg               *decompose.Subgraph
	rec              []ws.Record
	bc               []float64
	s                int32
	sIsArt, directed bool
	betaS, gammaS    float64
}

func newRootTerms(sg *decompose.Subgraph, s int32, directed bool, w *ws.Sweep) rootTerms {
	return rootTerms{
		sg: sg, rec: w.Rec, bc: w.BC,
		s: s, sIsArt: sg.IsArt[s], directed: directed,
		betaS: sg.Beta[s], gammaS: float64(sg.Gamma[s]),
	}
}

// settle finishes vertex v of the backward sweep given the successor sums
// the kernel accumulated for it (o2o is only meaningful when the root is an
// articulation point): δ_i2i seeds γ(v) on undirected graphs — the folded
// leaves at v are successors the swept graph no longer holds, each worth
// exactly σ_v/σ_leaf·(1+0) = 1 (DESIGN.md §1; a directed folded vertex has no
// in-arc and was never a successor); δ_i2o seeds α(v) at every reachable AP
// (Eq. 4's init) and δ_o2o seeds β(s)·α(v) when the root is itself an AP
// (Eq. 6's init); then the Eq. 7 merge into the sub-graph's local BC.
func (rt *rootTerms) settle(v int32, i2i, i2o, o2o float64) {
	sg := rt.sg
	if !rt.directed {
		i2i += float64(sg.Gamma[v]) // δ_i2i seed: the folded leaves at v
	}
	if v != rt.s && sg.IsArt[v] {
		i2o += sg.Alpha[v] // δ_i2o seed (Eq. 4)
		if rt.sIsArt {
			o2o += rt.betaS * sg.Alpha[v] // δ_o2o seed (Eq. 6)
		}
	}
	r := &rt.rec[v]
	r.Di2i, r.Di2o = i2i, i2o
	if rt.sIsArt {
		r.Do2o = o2o
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
// On a hybrid sub-graph (e.hybrid, set by ensure, which also builds the
// in-CSR) each level runs in whichever direction scans less: top-down
// examines the frontier's out-arcs; bottom-up — which must sum σ over every
// parent, so has no early exit — examines every in-arc of every unvisited
// vertex plus the visited bitset's words. Both volumes are brought up to date
// from the CSR degrees of each level once it is complete, so the rule has no
// parameter: a level goes bottom-up exactly when that is the smaller scan.
// The visited bitset, which only a bottom-up level reads, is filled in when
// one starts and cleared as far as it was filled. Either direction yields
// bit-identical output: σ path counts are integer-valued (exact float64 sums,
// order-independent — below 2⁵³; past it the choice can move a last bit, and
// is still the same choice on every run: DESIGN.md §4), dist is
// direction-independent, and the backward phase only needs `order` grouped by
// non-decreasing level — within-level permutations cannot change any value it
// computes.
//
// The backward pass takes the same choice level by level. A level that was
// expanded top-down pulls: the forward pass wrote each DAG arc it found — an
// arc into a vertex it discovers, or into one discovered earlier in the same
// level — to ws.Tape, under its tail's position in `order` (ws.TapePos), and
// the pull reads that stretch back: the vertex's successors one level down,
// in the order of its out-row, without the row's other arcs and without dist.
// A level that was discovered bottom-up instead pushes its terms over its
// in-arcs into its parents' records (push); the parents were expanded
// bottom-up and have no stretch, and the level's in-arcs are among the
// unvisited in-arcs the rule found fewer than the parents' out-arcs. Only such
// a level may push, because it sits in `order` in ascending id and every Out
// row is ascending (decompose keeps them so), hence a parent receives its
// successors' terms in exactly the order its pull would add them — the same
// float64 operations on the same operands, bit for bit. The deepest level has
// no successors and scans nothing in either mode.
//
// Each σ is tested once, when its vertex is in the frontier and its σ final —
// as it is read for a top-down expansion, or in a scan of the frontier that
// starts a bottom-up level — and one of +Inf sets e.overflow.
func (e *engine) bfsRoot(sg *decompose.Subgraph, s int32, directed bool) {
	dist, rec := e.ws.Dist, e.ws.Rec
	visited := e.ws.Visited
	n := len(sg.Roots)
	hybrid := e.hybrid
	tape, pos := e.ws.Tape, e.ws.TapePos

	// Phase 1: forward BFS counting shortest paths, level by level. order is
	// grouped by level (non-decreasing dist), which is all phase 2 needs.
	// Discovery touches a vertex's slots once: the first arc into w assigns
	// dist and σ (0 + σ(u) is exact, so this equals accumulating into a
	// zeroed slot), later arcs from the same level add — which is why σ
	// carries no clean-slot invariant and is never reset.
	order := append(e.ws.Order[:0], s)
	dist[s] = 0
	rec[s].Sigma = 1
	// frontOut: out-arcs of the current frontier; unvisIn: in-arcs of the
	// still-unvisited vertices; words: the bitset a bottom-up level walks.
	// bottomUpExtra: what the bottom-up levels scanned beyond the frontier
	// expansions they replaced (negative under the rule). ensure leaves
	// hybrid off under dirTopDown, so below e.force is the rule or bottom-up.
	var frontOut, unvisIn, words, bottomUpExtra int64
	// deep: where the deepest level starts in order. A hybrid sweep also
	// leaves its level table in e.ws.Levels for phase 2 — appended to in
	// place, not through a local, which would sit in the frontier loops'
	// registers (road: +2 % sweep time).
	deep := 0
	e.ws.Levels = e.ws.Levels[:0]
	if hybrid {
		frontOut = int64(len(sg.Out(s)))
		unvisIn = sg.NumArcs() - int64(len(sg.In(s)))
		words = int64(n+63) >> 6
		e.ws.Levels = append(e.ws.Levels, ws.Level{})
	}
	// marked: the visited bitset covers order[:marked]. Only a bottom-up level
	// reads it, so it is brought up to date when one starts and not before.
	// tp: the tape's write position.
	marked, tp := 0, int64(0)
	for d, lo, hi := int32(1), 0, 1; lo < hi; d++ {
		bottomUp := hybrid && (e.force == dirBottomUp || frontOut > unvisIn+words)
		if bottomUp {
			// Bottom-up: every unvisited vertex scans its in-arcs for parents
			// one level up; σ is the sum over all such parents — the same
			// integer sum top-down accumulates edge by edge.
			e.bottomUpLevels++
			bottomUpExtra += unvisIn + words - frontOut
			for _, v := range order[marked:hi] {
				visited.Set(int(v))
			}
			for _, u := range order[lo:hi] {
				if math.IsInf(rec[u].Sigma, 1) {
					e.overflow = true
				}
			}
			marked = hi
			order = e.bottomUpLevel(sg, n, d, order)
		} else {
			// Top-down, writing down what it finds: an arc into a vertex
			// discovered now or earlier in this level is a DAG arc, and no
			// other is, so u's stretch of the tape is its successors in the
			// order of its out-row.
			for i := lo; i < hi; i++ {
				u := order[i]
				pos[i] = tp
				su := rec[u].Sigma
				if math.IsInf(su, 1) {
					e.overflow = true
				}
				for _, w := range sg.Out(u) {
					if dw := dist[w]; dw < 0 {
						dist[w] = d
						rec[w].Sigma = su
						order = append(order, w)
						tape[tp] = w
						tp++
					} else if dw == d {
						rec[w].Sigma += su
						tape[tp] = w
						tp++
					}
				}
			}
			pos[hi] = tp
		}
		if len(order) > hi {
			deep = hi
			if hybrid {
				// The rule's two volumes, moved by the level just discovered.
				frontOut = 0
				for _, w := range order[hi:] {
					frontOut += int64(len(sg.Out(w)))
					unvisIn -= int64(len(sg.In(w)))
				}
				e.ws.Levels = append(e.ws.Levels, ws.Level{Start: int32(hi), BottomUp: bottomUp})
			}
		}
		lo, hi = hi, len(order)
	}
	e.ws.Order = order

	// Phase 2: backward accumulation, deepest level first. Without a pushing
	// level — every root of a non-hybrid sub-graph, and of a deep narrow
	// hybrid one — everything above the deepest level unwinds in one flat
	// reverse pass over order; otherwise level by level, each one's sums
	// pushed by the level below it or pulled off the tape. A level that pulls
	// was expanded top-down, so its stretch of the tape is there.
	rt := newRootTerms(sg, s, directed, e.ws)
	e.unwind(&rt, deep, len(order), sumsNone)
	levels, pushes := e.ws.Levels, false
	for _, l := range levels {
		pushes = pushes || l.BottomUp
	}
	if !pushes {
		e.unwind(&rt, 0, deep, sumsTaped)
	} else {
		mid, hi := deep, len(order)
		for k := len(levels) - 2; k >= 0; k-- {
			lo := int(levels[k].Start)
			if levels[k+1].BottomUp {
				e.push(&rt, lo, mid, hi)
				e.unwind(&rt, lo, mid, sumsPushed)
			} else {
				e.unwind(&rt, lo, mid, sumsTaped)
			}
			mid, hi = lo, mid
		}
	}

	// Sparse reset: only dist and visited carry state across roots, and
	// order is exactly the dirty list — O(touched), the pool's lazy-reset
	// contract. traversed keeps its direction-independent definition — Σ
	// outdeg over visited vertices (what a pure top-down sweep examines) —
	// so the work metric stays comparable across scheduler and direction
	// choices; examined is what this sweep's forward pass really scanned.
	var outArcs int64
	for _, v := range order {
		outArcs += int64(len(sg.Out(v)))
		dist[v] = -1
	}
	e.traversed += outArcs
	e.examined += outArcs + bottomUpExtra
	for _, v := range order[:marked] {
		visited.Clear(int(v))
	}
}

// bottomUpLevel appends level d of a sweep to order: every vertex of the swept
// graph, the local ids below n, that is not visited yet and has a parent at
// depth d-1 among its in-arcs, with σ the sum over those parents. A folded
// vertex has no in-arc to be discovered through. It is bfsRoot's, out of line:
// inlined, it changed how the compiler allocated the top-down loop's
// registers, and road's and social's sweeps, which never go bottom-up, took
// 5–7 % more CPU.
func (e *engine) bottomUpLevel(sg *decompose.Subgraph, n int, d int32, order []int32) []int32 {
	dist, rec, visited := e.ws.Dist, e.ws.Rec, e.ws.Visited
	for wi := 0; wi<<6 < n; wi++ {
		word, base := ^visited.Word(wi), wi<<6
		if n-base < 64 {
			word &= 1<<uint(n-base) - 1
		}
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			word &= word - 1
			v := int32(base + tz)
			var sv float64
			for _, u := range sg.In(v) {
				if dist[u] == d-1 {
					sv += rec[u].Sigma
				}
			}
			if sv != 0 {
				dist[v] = d
				rec[v].Sigma = sv
				order = append(order, v)
			}
		}
	}
	return order
}

// sums says where unwind finds the successor sums of the vertices it settles.
type sums int8

const (
	sumsTaped  sums = iota // read the successors one level down off the tape the forward pass left
	sumsPushed             // the level below has pushed them into rec[v]
	sumsNone               // the deepest level: no successors, every sum is zero
)

// unwind settles order[lo:hi) in reverse, split once on the root's class. An
// articulation-point root carries all three sums through settle. Any other
// root (most of them) has δ_o2o ≡ 0 and no β term, so its non-root vertices
// need two sums, the Eq. 4 seed and the Eq. 7 merge (1+γ(s))·(δ_i2i+δ_i2o) —
// settle's arithmetic with the zero terms dropped, which cannot change a bit;
// the root vertex itself still goes through settle.
func (e *engine) unwind(rt *rootTerms, lo, hi int, from sums) {
	sg, rec, level := rt.sg, rt.rec, e.ws.Order[lo:hi]
	// A taped level's stretches lie back to back, so walking it in reverse
	// each one ends where the one settled before it began.
	var tape []int32
	var pos []int64
	var end int64
	if from == sumsTaped {
		tape, pos = e.ws.Tape, e.ws.TapePos[lo:hi+1]
		end = pos[len(level)]
		e.backScanned += end - pos[0]
	}
	if rt.sIsArt {
		for i := len(level) - 1; i >= 0; i-- {
			v := level[i]
			var i2i, i2o, o2o float64
			switch from {
			case sumsTaped:
				sv := rec[v].Sigma
				start := pos[i]
				for _, w := range tape[start:end] {
					rw := &rec[w]
					r := sv / rw.Sigma
					i2i += r * (1 + rw.Di2i)
					i2o += r * rw.Di2o
					o2o += r * rw.Do2o
				}
				end = start
			case sumsPushed:
				rv := &rec[v]
				i2i, i2o, o2o = rv.Di2i, rv.Di2o, rv.Do2o
			}
			rt.settle(v, i2i, i2o, o2o)
		}
	} else {
		isArt, alpha, gamma, bc := sg.IsArt, sg.Alpha, sg.Gamma, rt.bc
		g1, s, directed := 1+rt.gammaS, rt.s, rt.directed
		for i := len(level) - 1; i >= 0; i-- {
			v := level[i]
			var i2i, i2o float64
			switch from {
			case sumsTaped:
				sv := rec[v].Sigma
				start := pos[i]
				for _, w := range tape[start:end] {
					rw := &rec[w]
					r := sv / rw.Sigma
					i2i += r * (1 + rw.Di2i)
					i2o += r * rw.Di2o
				}
				end = start
			case sumsPushed:
				rv := &rec[v]
				i2i, i2o = rv.Di2i, rv.Di2o
			}
			if v == s {
				rt.settle(v, i2i, i2o, 0)
				break
			}
			if !directed {
				i2i += float64(gamma[v]) // δ_i2i seed, as in settle
			}
			if isArt[v] {
				i2o += alpha[v] // δ_i2o seed (Eq. 4)
			}
			rv := &rec[v]
			rv.Di2i, rv.Di2o = i2i, i2o
			bc[v] += float64(g1 * (i2i + i2o)) // rounded before the add, as settle's contrib is
		}
	}
}

// push is the pull turned around: the settled level order[mid:hi), which the
// forward pass discovered bottom-up, adds each DAG arc's terms into the
// records of its parents order[lo:mid), zeroed first. The terms are the
// pull's own — σ_u/σ_w·(1+δ_i2i(w)), σ_u/σ_w·δ_i2o(w), and δ_o2o under an
// articulation-point root — and reach a parent in ascending w, the order of
// its Out row (see bfsRoot), so unwind finds in the record what its own scan
// would have summed.
func (e *engine) push(rt *rootTerms, lo, mid, hi int) {
	sg, rec, dist, order := rt.sg, rt.rec, e.ws.Dist, e.ws.Order
	for _, u := range order[lo:mid] {
		ru := &rec[u]
		ru.Di2i, ru.Di2o, ru.Do2o = 0, 0, 0
	}
	du := dist[order[lo]]
	var scanned int64
	for _, w := range order[mid:hi] {
		rw := &rec[w]
		in := sg.In(w)
		scanned += int64(len(in))
		for _, u := range in {
			if dist[u] == du {
				ru := &rec[u]
				r := ru.Sigma / rw.Sigma
				ru.Di2i += r * (1 + rw.Di2i)
				ru.Di2o += r * rw.Di2o
				if rt.sIsArt {
					ru.Do2o += r * rw.Do2o
				}
			}
		}
	}
	e.backScanned += scanned
	e.pushedLevels++
}
