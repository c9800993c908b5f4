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
// and ws.Sweep.LaneBC the per-root BC contribution the fold reads. The swept
// graph's vertices are the local ids [0, len(sg.Roots)) (internal/decompose),
// so masks and slots are indexed by local id and cover only them: 64 × 40 B
// of slots and two mask words per vertex a sweep can reach, nothing for the
// γ-folded ids (slot v·64+l belongs to lane l of vertex v).
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
// pairs in discovery order, the levels back to back in ws.Sweep.LaneVerts and
// LaneMasks with their starts in ws.Sweep.Levels — so a batch costs
// O(visited incidences) extra memory, not O(levels·|V|). One dense lane-mask
// scratch array (ws.LaneFront) serves as the random-access view: the forward
// pass accumulates each next level in it and converts to sparse form at the
// level barrier; the backward pass replays each level's sparse list back into
// it while descending. The vertices the batch touched are listed in
// ws.Sweep.Order. So the arena owns every byte of scratch and Run keeps
// nothing between batches: a warm workspace runs a batch without allocating.
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

// batch is one Run's per-lane root metadata and what the backward pass reads
// besides the workspace. It lives on Run's stack.
type batch struct {
	sg       *decompose.Subgraph
	s        *ws.Sweep
	directed bool
	rootAt   [LaneWidth]int32
	beta     [LaneWidth]float64
	gamma    [LaneWidth]float64
	art      uint64 // lanes whose root is a boundary articulation point
	inexact  bool   // some lane's path count reached maxExactSigma
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
func Run(sg *decompose.Subgraph, roots []int32, directed bool, s *ws.Sweep) (traversed int64, exact bool) {
	if len(roots) == 0 {
		return 0, true
	}
	if len(roots) > LaneWidth {
		panic("msbfs: batch exceeds LaneWidth roots")
	}
	b := batch{sg: sg, s: s, directed: directed}
	rec := s.LaneRec
	seen := s.LaneSeen
	dense := s.LaneFront
	for l, r := range roots {
		b.rootAt[l] = r
		b.beta[l] = sg.Beta[r]
		b.gamma[l] = float64(sg.Gamma[r])
		if sg.IsArt[r] {
			b.art |= 1 << uint(l)
		}
	}
	verts, masks := s.LaneVerts[:0], s.LaneMasks[:0]
	levels := append(s.Levels[:0], ws.Level{})
	touched := s.Order[:0]

	// Depth 0: seed every root's lane. The dense scratch deduplicates
	// repeated root vertices exactly as it deduplicates a level's frontier.
	for l, r := range roots {
		if dense[r] == 0 {
			verts = append(verts, r)
		}
		dense[r] |= 1 << uint(l)
		rec[int(r)*LaneWidth+l].Sigma = 1
	}
	for _, r := range verts {
		m := dense[r]
		masks = append(masks, m)
		touched = append(touched, r)
		seen[r] = m
		dense[r] = 0
	}

	// Forward: one shared pass over the CSR per depth level of the batch. The
	// level being expanded is verts[lo:hi]; the next one is appended past it.
	for lo := 0; ; {
		hi := len(verts)
		for i := lo; i < hi; i++ {
			u, um := verts[i], masks[i]
			ub := int(u) * LaneWidth
			ru := rec[ub : ub+LaneWidth : ub+LaneWidth]
			for _, w := range sg.Out(u) {
				prop := um &^ seen[w]
				if prop == 0 {
					continue
				}
				if dense[w] == 0 {
					verts = append(verts, w)
				}
				dense[w] |= prop
				wb := int(w) * LaneWidth
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
		for _, w := range verts[hi:] {
			m := dense[w]
			masks = append(masks, m)
			if seen[w] == 0 {
				touched = append(touched, w)
			}
			seen[w] |= m
			dense[w] = 0
		}
		if len(verts) == hi {
			break
		}
		levels = append(levels, ws.Level{Start: int32(hi)})
		lo = hi
	}
	s.LaneVerts, s.LaneMasks, s.Levels, s.Order = verts, masks, levels, touched

	b.backward()

	// Fold finished per-lane contributions into the sub-graph accumulator in
	// ascending lane (= root) order per vertex, count traversed arcs, and
	// sparse-reset σ and seen: only the lanes that saw a vertex set its σ. The
	// δ fields and the BC lane array are assign-only. An inexact batch resets
	// and folds nothing.
	bcLane := s.LaneBC
	bc := s.BC
	for _, v := range touched {
		m := seen[v]
		vb := int(v) * LaneWidth
		rv := rec[vb : vb+LaneWidth : vb+LaneWidth]
		seen[v] = 0
		if b.inexact {
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
	return traversed, !b.inexact
}

// backward runs the four-dependency accumulation over the recorded levels,
// deepest first. On entry the dense scratch is all zero (= the successor
// masks of the empty level past the last); while descending it always holds
// the lane masks of level d+1 when level d is being processed.
//
// A vertex's 64 slots are re-sliced to exactly LaneWidth records and lane
// numbers masked to 0…63, so the compiler proves every per-lane index in
// bounds. The successor step runs twice per arc, once over the lanes whose
// root is not an articulation point (two sums) and once over those whose root
// is (three): each lane still adds its terms in sg.Out order, so splitting the
// lanes changes no lane's operands or their order.
func (b *batch) backward() {
	sg, s := b.sg, b.s
	rec := s.LaneRec
	dense := s.LaneFront
	bcLane := s.LaneBC
	verts, masks, levels := s.LaneVerts, s.LaneMasks, s.Levels
	art := b.art
	// Level d is verts[lo:hi], level d+1 verts[hi:next].
	hi, next := len(verts), len(verts)
	for d := len(levels) - 1; d >= 0; d-- {
		lo := int(levels[d].Start)
		lvVerts, lvMasks := verts[lo:hi], masks[lo:hi]
		for i, v := range lvVerts {
			vm := lvMasks[i]
			vb := int(v) * LaneWidth
			rv := rec[vb : vb+LaneWidth : vb+LaneWidth]
			// Zero this vertex's active accumulator slots; like the scalar
			// engine's locals, they then collect successor terms in sg.Out
			// order before the seeds fold in. Only AP lanes add to δ_o2o, so
			// it stays 0 in the others.
			for m := vm; m != 0; m &= m - 1 {
				x := &rv[bits.TrailingZeros64(m)&(LaneWidth-1)]
				if x.Sigma >= maxExactSigma {
					b.inexact = true
				}
				x.Di2i, x.Di2o, x.Do2o = 0, 0, 0
			}
			for _, w := range sg.Out(v) {
				sm := vm & dense[w]
				if sm == 0 {
					continue
				}
				wb := int(w) * LaneWidth
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
				if !b.directed {
					x.Di2i += gammaV // δ_i2i seed: v's folded leaves (core rootTerms.settle)
				}
				if v != b.rootAt[l] {
					if isArtV {
						x.Di2o += alphaV // δ_i2o seed (Eq. 4)
						if sIsArt {
							x.Do2o += b.beta[l] * alphaV // δ_o2o seed (Eq. 6)
						}
					}
					contrib := (1+b.gamma[l])*(x.Di2i+x.Di2o) + x.Do2o
					if sIsArt {
						contrib += b.beta[l] * x.Di2i // δ_o2i = β(s)·δ_i2i (Eq. 5)
					}
					bv[l] = contrib
				} else if b.gamma[l] > 0 {
					root := x.Di2i + x.Di2o
					if sIsArt {
						root += alphaV // see core rootTerms.settle
					}
					if !b.directed {
						root-- // undirected folded-leaf correction (DESIGN.md §1)
					}
					bv[l] = b.gamma[l] * root
				} else {
					// The scalar engine adds nothing for this root vertex;
					// write the zero so the fold reads a defined slot.
					bv[l] = 0
				}
			}
		}
		// Roll the dense successor view down one level: drop level d+1's
		// masks, publish level d's for the next iteration.
		for _, w := range verts[hi:next] {
			dense[w] = 0
		}
		for i, v := range lvVerts {
			dense[v] = lvMasks[i]
		}
		hi, next = lo, hi
	}
	// Level 0's masks are still published; return the scratch clean.
	for _, v := range verts[hi:next] {
		dense[v] = 0
	}
}
