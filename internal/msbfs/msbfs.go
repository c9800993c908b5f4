// Package msbfs implements a bit-parallel multi-source batched sweep engine
// for APGRE betweenness centrality: one traversal carries up to 64 roots at
// once, sharing a single CSR stream across the whole batch instead of
// re-reading the adjacency once per root. The CSR is the sub-graph's swept
// graph (decompose.Subgraph.Out), as for the scalar engine.
//
// # Lane layout
//
// A batch assigns each root a lane — one bit position of a 64-bit machine
// word (ws.LaneWidth). Per-vertex lane masks then compress 64 traversal
// states into single words:
//
//	seen[v]  — lanes whose root has reached v at any depth so far
//	mask d,v — lanes whose root reached v at exactly depth d
//
// and the per-lane numeric state lives in two arrays carved out of the shared
// ws arena, LaneWidth slots per vertex: ws.Sweep.LaneRec holds one ws.Record
// per slot — σ and the three stored APGRE dependencies, packed as the scalar
// engine packs a vertex's, because the backward step reads them together —
// and ws.Sweep.LaneBC the per-root BC contribution the fold reads. Slots are
// indexed by a vertex's rank in sg.Roots — the swept graph's vertices — so
// they hold 64 × 40 B per vertex a sweep can reach and nothing for the
// γ-folded ids (slot rank(v)·64+l belongs to lane l; Kernel.slot is the id →
// rank table). The mask words stay indexed by id: the per-arc test below reads
// them and pays no indirection.
// The forward σ-BFS processes one depth level of the whole batch at a time:
// for each vertex u in the level's union frontier, each out-arc u→w is
// examined once, and the lanes that step from u to w fall out of one word
// operation, propagate = mask(u) &^ seen[w] — the lanes at depth d on u that
// have not seen w yet are exactly the lanes for which w is at depth d+1 via
// parent u. σ accumulates per lane over those bits. The backward pass walks
// the recorded levels deepest-first; the lanes for which w is a successor of
// v are again one word op, mask(v) & mask(w at d+1), and the four-dependency
// recursion with the α/β/γ boundary seeds runs per set lane exactly as in
// the scalar engine (internal/core).
//
// # Why batching stays bit-exact
//
// The batched engine reproduces the scalar serial engine bit for bit, which
// is what lets it slot behind the deterministic scheduler unobserved:
//
//   - σ path counts are integers stored in float64. Below 2⁵³ their sums are
//     exact, so accumulation order — where the batched level-parallel order
//     differs from scalar BFS discovery order — cannot change a single bit.
//     At 2⁵³ and beyond that argument is gone: a vertex with three or more
//     same-level parents can round differently under another order (a road
//     lattice of 57 k vertices, σ ≈ 10⁹⁶, differed from the scalar engine in
//     the last bit of 11 scores), so a batch in which any lane's path count
//     gets there is not finished: Run reports it inexact, adds nothing, and
//     the caller sweeps those roots with the scalar engine.
//   - Per lane, the backward dependency sums add successor terms in
//     adjacency (sg.Out) order, the scalar engine's order, and the γ and α/β
//     seeds fold in at the same position in the sequence; float64 operations
//     therefore replay the scalar engine's instruction stream operand for
//     operand. Running a batch's articulation-point lanes in a loop of their
//     own reorders work across lanes, never within one.
//   - Each lane's finished contribution is staged in a per-lane BC slot and
//     folded into the sub-graph accumulator per vertex in ascending lane
//     order after the batch — lane order is root order, so every BC slot
//     sees the exact addition sequence the scalar engine produces running
//     those roots one after another.
//
// # Memory and reset discipline
//
// Level masks are stored sparsely — per level, a list of (vertex, mask)
// pairs in discovery order — so a batch costs O(visited incidences) extra
// memory, not O(levels·|V|). One dense lane-mask scratch array (ws.LaneFront)
// serves as the random-access view: the forward pass accumulates each next
// level in it and converts to sparse form at the level barrier; the backward
// pass replays each level's sparse list back into it while descending.
// All per-vertex state honours the arena's sparse-reset contract: the kernel
// walks only the vertices the batch touched, and the per-lane δ fields and BC
// slots need no reset at all because every visited (vertex, lane) slot is
// written before it is read.
package msbfs

import (
	"math/bits"

	"repro/internal/decompose"
	"repro/internal/ws"
)

// LaneWidth is the maximum batch size: one root per bit of a lane word.
const LaneWidth = ws.LaneWidth

// maxExactSigma is where float64 stops representing every integer: a path
// count below it is an exact sum whatever order its parents were added in.
const maxExactSigma = 1 << 53

// level is one recorded BFS depth: the vertices some lane first reached at
// this depth, in discovery order, with the lane masks parallel to them.
type level struct {
	verts []int32
	masks []uint64
}

// Kernel runs bit-parallel multi-source APGRE sweeps over one sub-graph at a
// time. It is single-threaded scratch, one per worker, reusable across
// batches and sub-graphs of any size; the per-vertex numeric state lives in
// the ws.Sweep passed to Run, so a pooled arena serves the kernel exactly as
// it serves the scalar engines.
type Kernel struct {
	// Per-lane root metadata, filled at the start of every batch.
	rootAt  [LaneWidth]int32
	beta    [LaneWidth]float64
	gamma   [LaneWidth]float64
	artMask uint64 // lanes whose root is a boundary articulation point

	levels  []level
	touched []int32 // vertices reached by any lane this batch, in first-seen order
	inexact bool    // some lane's path count reached maxExactSigma this batch

	// slot[v] is v's rank in slotOf.Roots (its lane slots start at
	// slot[v]·LaneWidth), rebuilt when Run meets another sub-graph. Entries of
	// ids outside Roots are stale and never read: no sweep reaches them.
	slot   []int32
	slotOf *decompose.Subgraph
}

// grow returns the d-th level, extending the level list as needed. Callers
// rely on Run's end-of-batch truncation for freshness.
func (k *Kernel) grow(d int) *level {
	for len(k.levels) <= d {
		k.levels = append(k.levels, level{})
	}
	return &k.levels[d]
}

// Run executes one batched multi-source sweep: forward σ-BFS from all roots
// at once, the backward four-dependency accumulation with the α/β/γ boundary
// terms per lane, and the in-root-order fold into s.BC. roots must hold at
// most LaneWidth local vertex ids of sg (duplicates are allowed — lanes are
// independent). Returns the traversed-arc count under the engine-wide metric,
// Σ over (root, visited vertex) of the vertex's out-degree, and whether every
// path count of the batch stayed exact. If not (see the package comment) s.BC
// is as it was and the count is 0: the batch did not happen, and the caller
// owes these roots a scalar sweep.
//
// The scratch s must hold sg's lane arrays (ws.Sweep.GrowLanes with sg's
// swept size; the caller's kernel rule owns the budget they are grown under),
// and is returned to its clean-slot state before Run returns, so the caller's
// pooled-sweep discipline is unchanged.
func (k *Kernel) Run(sg *decompose.Subgraph, roots []int32, directed bool, s *ws.Sweep) (traversed int64, exact bool) {
	if len(roots) == 0 {
		return 0, true
	}
	if len(roots) > LaneWidth {
		panic("msbfs: batch exceeds LaneWidth roots")
	}
	if k.slotOf != sg {
		if cap(k.slot) < sg.NumVerts() {
			k.slot = make([]int32, sg.NumVerts())
		}
		k.slot = k.slot[:sg.NumVerts()]
		for rank, r := range sg.Roots {
			k.slot[r] = int32(rank)
		}
		k.slotOf = sg
	}
	slot := k.slot
	rec := s.LaneRec
	seen := s.LaneSeen
	dense := s.LaneFront

	k.artMask = 0
	for l, r := range roots {
		k.rootAt[l] = r
		k.beta[l] = sg.Beta[r]
		k.gamma[l] = float64(sg.Gamma[r])
		if sg.IsArt[r] {
			k.artMask |= 1 << uint(l)
		}
	}
	k.touched = k.touched[:0]
	k.inexact = false

	// Depth 0: seed every root's lane. The dense scratch deduplicates
	// repeated root vertices exactly as it deduplicates a level's frontier.
	lv0 := k.grow(0)
	for l, r := range roots {
		if dense[r] == 0 {
			lv0.verts = append(lv0.verts, r)
		}
		dense[r] |= 1 << uint(l)
		rec[int(slot[r])*LaneWidth+l].Sigma = 1
	}
	for _, r := range lv0.verts {
		m := dense[r]
		lv0.masks = append(lv0.masks, m)
		k.touched = append(k.touched, r)
		seen[r] = m
		dense[r] = 0
	}

	// Forward: one shared pass over the CSR per depth level of the batch.
	last := 0
	for d := 0; ; d++ {
		curVerts, curMasks := k.levels[d].verts, k.levels[d].masks
		nxt := k.grow(d + 1)
		for i, u := range curVerts {
			um := curMasks[i]
			ub := int(slot[u]) * LaneWidth
			ru := rec[ub : ub+LaneWidth : ub+LaneWidth]
			for _, w := range sg.Out(u) {
				prop := um &^ seen[w]
				if prop == 0 {
					continue
				}
				if dense[w] == 0 {
					nxt.verts = append(nxt.verts, w)
				}
				dense[w] |= prop
				wb := int(slot[w]) * LaneWidth
				rw := rec[wb : wb+LaneWidth : wb+LaneWidth]
				if prop == ^uint64(0) {
					// All 64 lanes step together: a straight-line block add.
					for l := range rw {
						rw[l].Sigma += ru[l].Sigma
					}
				} else {
					for m := prop; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m) & (LaneWidth - 1)
						rw[l].Sigma += ru[l].Sigma
					}
				}
			}
		}
		// Level barrier: freeze the next frontier into sparse form, publish
		// its lanes to seen, and hand the dense scratch back clean.
		for _, w := range nxt.verts {
			m := dense[w]
			nxt.masks = append(nxt.masks, m)
			if seen[w] == 0 {
				k.touched = append(k.touched, w)
			}
			seen[w] |= m
			dense[w] = 0
		}
		if len(nxt.verts) == 0 {
			last = d
			break
		}
	}

	k.backward(sg, directed, s, last)

	// Fold finished per-lane contributions into the sub-graph accumulator in
	// ascending lane (= root) order per vertex, count traversed arcs, and
	// sparse-reset σ and seen: only the lanes that saw a vertex set its σ. The
	// δ fields and the BC lane array are assign-only. An inexact batch resets
	// and folds nothing.
	bcLane := s.LaneBC
	bc := s.BC
	for _, v := range k.touched {
		m := seen[v]
		vb := int(slot[v]) * LaneWidth
		rv := rec[vb : vb+LaneWidth : vb+LaneWidth]
		seen[v] = 0
		if k.inexact {
			for ; m != 0; m &= m - 1 {
				rv[bits.TrailingZeros64(m)&(LaneWidth-1)].Sigma = 0
			}
			continue
		}
		traversed += int64(len(sg.Out(v))) * int64(bits.OnesCount64(m))
		bv := bcLane[vb : vb+LaneWidth : vb+LaneWidth]
		if m == ^uint64(0) {
			x := bc[v]
			for l := range rv {
				x += bv[l]
				rv[l].Sigma = 0
			}
			bc[v] = x
		} else {
			for ; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m) & (LaneWidth - 1)
				bc[v] += bv[l]
				rv[l].Sigma = 0
			}
		}
	}
	for d := range k.levels {
		k.levels[d].verts = k.levels[d].verts[:0]
		k.levels[d].masks = k.levels[d].masks[:0]
	}
	return traversed, !k.inexact
}

// backward runs the four-dependency accumulation over the recorded levels,
// deepest first. On entry the dense scratch is all zero (= the successor
// masks of the empty level past last); while descending it always holds the
// lane masks of level d+1 when level d is being processed.
//
// A vertex's 64 slots are re-sliced to exactly LaneWidth records and lane
// numbers masked to 0…63, so the compiler proves every per-lane index in
// bounds. The successor step runs twice per arc, once over the lanes whose
// root is not an articulation point (two sums) and once over those whose root
// is (three): each lane still adds its terms in sg.Out order, so splitting the
// lanes changes no lane's operands or their order.
func (k *Kernel) backward(sg *decompose.Subgraph, directed bool, s *ws.Sweep, last int) {
	rec := s.LaneRec
	dense := s.LaneFront
	bcLane := s.LaneBC
	art, slot := k.artMask, k.slot
	for d := last; d >= 0; d-- {
		lvVerts, lvMasks := k.levels[d].verts, k.levels[d].masks
		for i, v := range lvVerts {
			vm := lvMasks[i]
			vb := int(slot[v]) * LaneWidth
			rv := rec[vb : vb+LaneWidth : vb+LaneWidth]
			// Zero this vertex's active accumulator slots; like the scalar
			// engine's locals, they then collect successor terms in sg.Out
			// order before the seeds fold in. Only AP lanes add to δ_o2o, so
			// it stays 0 in the others.
			for m := vm; m != 0; m &= m - 1 {
				x := &rv[bits.TrailingZeros64(m)&(LaneWidth-1)]
				if x.Sigma >= maxExactSigma {
					k.inexact = true
				}
				x.Di2i, x.Di2o, x.Do2o = 0, 0, 0
			}
			for _, w := range sg.Out(v) {
				sm := vm & dense[w]
				if sm == 0 {
					continue
				}
				wb := int(slot[w]) * LaneWidth
				rw := rec[wb : wb+LaneWidth : wb+LaneWidth]
				for m := sm &^ art; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m) & (LaneWidth - 1)
					x, y := &rv[l], &rw[l]
					r := x.Sigma / y.Sigma
					x.Di2i += r * (1 + y.Di2i)
					x.Di2o += r * y.Di2o
				}
				for m := sm & art; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m) & (LaneWidth - 1)
					x, y := &rv[l], &rw[l]
					r := x.Sigma / y.Sigma
					x.Di2i += r * (1 + y.Di2i)
					x.Di2o += r * y.Di2o
					x.Do2o += r * y.Do2o
				}
			}
			isArtV := sg.IsArt[v]
			alphaV := sg.Alpha[v]
			gammaV := float64(sg.Gamma[v])
			bv := bcLane[vb : vb+LaneWidth : vb+LaneWidth]
			for m := vm; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m) & (LaneWidth - 1)
				x := &rv[l]
				sIsArt := art&(1<<uint(l)) != 0
				if !directed {
					x.Di2i += gammaV // δ_i2i seed: v's folded leaves (core rootTerms.settle)
				}
				if v != k.rootAt[l] {
					if isArtV {
						x.Di2o += alphaV // δ_i2o seed (Eq. 4)
						if sIsArt {
							x.Do2o += k.beta[l] * alphaV // δ_o2o seed (Eq. 6)
						}
					}
					contrib := (1+k.gamma[l])*(x.Di2i+x.Di2o) + x.Do2o
					if sIsArt {
						contrib += k.beta[l] * x.Di2i // δ_o2i = β(s)·δ_i2i (Eq. 5)
					}
					bv[l] = contrib
				} else if k.gamma[l] > 0 {
					root := x.Di2i + x.Di2o
					if sIsArt {
						root += alphaV // see core rootTerms.settle
					}
					if !directed {
						root-- // undirected folded-leaf correction (DESIGN.md §1)
					}
					bv[l] = k.gamma[l] * root
				} else {
					// The scalar engine adds nothing for this root vertex;
					// write the zero so the fold reads a defined slot.
					bv[l] = 0
				}
			}
		}
		// Roll the dense successor view down one level: drop level d+1's
		// masks, publish level d's for the next iteration.
		if d < last {
			for _, w := range k.levels[d+1].verts {
				dense[w] = 0
			}
		}
		for i, v := range lvVerts {
			dense[v] = lvMasks[i]
		}
	}
	// Level 0's masks are still published; return the scratch clean.
	for _, v := range k.levels[0].verts {
		dense[v] = 0
	}
}
