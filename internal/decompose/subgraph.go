package decompose

import (
	"slices"
	"sort"

	"repro/internal/bcc"
	"repro/internal/graph"
)

// buildSubgraphs materializes one finished Subgraph per merge group in
// O(|V|+|E|) — local ids, γ and roots, the swept CSR — with no sort over arcs
// and no per-arc record.
//
// A vertex whose blocks all fall in one group has that group as its home; a
// vertex whose blocks span groups is a boundary articulation point and joins
// each of them; a vertex in no block is isolated and joins none. Groups
// receive their vertices in increasing global id (passes 1 and 2), which also
// sizes every row, and that is enough to fold the γ leaves and know every
// swept degree before a single arc is stored. From there a group takes one of
// two builds, by what its swept graph looks like (hasHub):
//
//   - without a hub, the input layout: local ids monotone in global ids, every
//     local row the input row relabelled — already sorted, weights parallel by
//     position — and then stripped of the folded vertices. An arc belongs to
//     the group of its undirected edge's block (bcc.Result.EdgeBlock): for a
//     home vertex that is the whole row; a boundary AP's row is dealt out arc
//     by arc through a group-indexed table of row cursors set from the AP's
//     own (group, local id) list, so each pass reads the row once however many
//     groups the AP joins (passes 3 and 4);
//   - with one, the layout relabel chooses for the cache, its rows written
//     once, swept and under their final ids, in place of the input-order ones.
func buildSubgraphs(d *Decomposition, g *graph.Graph, res *bcc.Result, blockGroup []int32, numGroups int, disableGamma bool) {
	n := g.NumVertices()
	const isolated, boundary = -1, -2

	// Pass 1: classify the vertices and size the groups. A boundary AP gets
	// one entry per group it joins, contiguous in apGroup (and, from pass 2,
	// apLocal): local[v] indexes apFirst, whose consecutive values bracket
	// v's entries, until pass 4 rewrites it. For every other vertex local[v]
	// is its local id in its home group.
	home := make([]int32, n)
	local := make([]int32, n)
	vertOff := make([]int32, numGroups+1)
	artOff := make([]int32, numGroups+1)
	var apGroup []int32
	apFirst := []int32{0}
	lastAP := make([]int32, numGroups) // last boundary AP entered into each group
	for i := range lastAP {
		lastAP[i] = -1
	}
	for v := 0; v < n; v++ {
		blocks := res.VertexBlocks[v]
		if len(blocks) == 0 {
			home[v] = isolated
			continue
		}
		h := blockGroup[blocks[0]]
		for _, b := range blocks[1:] {
			if blockGroup[b] != h {
				h = boundary
				break
			}
		}
		home[v] = h
		if h != boundary {
			vertOff[h+1]++
			continue
		}
		for _, b := range blocks {
			if gr := blockGroup[b]; lastAP[gr] != int32(v) {
				lastAP[gr] = int32(v)
				apGroup = append(apGroup, gr)
				vertOff[gr+1]++
				artOff[gr+1]++
			}
		}
		local[v] = int32(len(apFirst) - 1)
		apFirst = append(apFirst, int32(len(apGroup)))
	}
	d.NumArticulation = len(apFirst) - 1
	for gr := 0; gr < numGroups; gr++ {
		vertOff[gr+1] += vertOff[gr]
		artOff[gr+1] += artOff[gr]
	}
	d.forest = newForest(artOff, apFirst, apGroup)

	verts := make([]graph.V, vertOff[numGroups])
	arts := make([]int32, artOff[numGroups])
	subs := make([]*Subgraph, numGroups)
	for gr := range subs {
		lo, hi := vertOff[gr], vertOff[gr+1]
		nl := int(hi - lo)
		subs[gr] = &Subgraph{
			ID:       gr,
			Verts:    verts[lo:lo:hi],
			offs:     make([]int64, nl+1),
			IsArt:    make([]bool, nl),
			Arts:     arts[artOff[gr]:artOff[gr]:artOff[gr+1]],
			Alpha:    make([]float64, nl),
			Beta:     make([]float64, nl),
			Gamma:    make([]int32, nl),
			directed: g.Directed(),
		}
	}
	d.Subgraphs = subs

	// Pass 2: hand out local ids in id order and size every local row.
	apLocal := make([]int32, len(apGroup))
	rowAt := make([]int64, numGroups) // the current AP's row cursor in each of its groups
	for v := graph.V(0); int(v) < n; v++ {
		switch h := home[v]; h {
		case isolated:
		case boundary:
			lo, hi := apFirst[local[v]], apFirst[local[v]+1]
			for e := lo; e < hi; e++ {
				sg := subs[apGroup[e]]
				apLocal[e] = int32(len(sg.Verts))
				sg.Verts = append(sg.Verts, v)
				sg.IsArt[apLocal[e]] = true
				sg.Arts = append(sg.Arts, apLocal[e])
			}
			for _, w := range g.Out(v) {
				rowAt[blockGroup[res.EdgeBlock(v, w)]]++
			}
			for e := lo; e < hi; e++ {
				gr := apGroup[e]
				subs[gr].offs[apLocal[e]+1] = rowAt[gr]
				rowAt[gr] = 0
			}
		default:
			sg := subs[h]
			local[v] = int32(len(sg.Verts))
			sg.Verts = append(sg.Verts, v)
			sg.offs[local[v]+1] = int64(g.OutDegree(v))
		}
	}

	// Fold the γ leaves (Theorem 3's total-redundancy elimination) and pick
	// each group's build. A group that keeps the input layout gets its rows at
	// their unswept size, for passes 3 and 4 to fill and strip to cut down.
	if g.Directed() {
		g.EnsureTranspose()
	}
	weighted := g.Weighted()
	for _, sg := range subs {
		sg.fold(g, disableGamma)
		if sg.relabelled = sg.hasHub(); sg.relabelled {
			continue
		}
		for l := range sg.Verts {
			sg.offs[l+1] += sg.offs[l]
		}
		sg.adj = make([]int32, sg.offs[len(sg.Verts)])
		if weighted {
			sg.wts = make([]float64, len(sg.adj))
		}
	}

	// Pass 3: copy every arc of the input-layout groups to its row, still
	// under its global target id.
	for v := graph.V(0); int(v) < n; v++ {
		switch h := home[v]; h {
		case isolated:
		case boundary:
			lo, hi := apFirst[local[v]], apFirst[local[v]+1]
			for e := lo; e < hi; e++ {
				rowAt[apGroup[e]] = subs[apGroup[e]].offs[apLocal[e]]
			}
			base := g.ArcBase(v)
			for i, w := range g.Out(v) {
				gr := blockGroup[res.EdgeBlock(v, w)]
				sg := subs[gr]
				if sg.relabelled {
					continue
				}
				sg.adj[rowAt[gr]] = w
				if weighted {
					sg.wts[rowAt[gr]] = g.ArcWeight(base + int64(i))
				}
				rowAt[gr]++
			}
		default:
			sg := subs[h]
			if sg.relabelled {
				continue
			}
			at := sg.offs[local[v]]
			copy(sg.adj[at:], g.Out(v))
			if weighted {
				copy(sg.wts[at:], g.OutWeights(v))
			}
		}
	}

	// Pass 4: finish the groups one by one. Home vertices' entries of local
	// are final in the input layout; each group overwrites its boundary APs'
	// entries before reading them. An input-layout group relabels its rows in
	// place and strips them; relabel does the rest of the others' build.
	for _, sg := range subs {
		for _, l := range sg.Arts {
			local[sg.Verts[l]] = l
		}
		if sg.relabelled {
			sg.relabel(g, res, blockGroup, home, local)
			continue
		}
		for i, w := range sg.adj {
			sg.adj[i] = local[w]
		}
		sg.strip()
	}
}

// LocalID returns the local id of global vertex v in sg, or -1. In the input
// layout Verts is ascending. A relabelled sub-graph keeps two ascending runs
// to search instead: Roots lists the swept vertices in global-id order, and
// the folded vertices are the tail of Verts, in global-id order too.
func (s *Subgraph) LocalID(v graph.V) int32 {
	if !s.relabelled {
		if i, ok := slices.BinarySearch(s.Verts, v); ok {
			return int32(i)
		}
		return -1
	}
	if i, ok := sort.Find(len(s.Roots), func(i int) int { return int(v) - int(s.Verts[s.Roots[i]]) }); ok {
		return s.Roots[i]
	}
	if i, ok := slices.BinarySearch(s.Verts[len(s.Roots):], v); ok {
		return int32(len(s.Roots) + i)
	}
	return -1
}

// foldsInto reports whether v's whole DAG derives from its one neighbour's,
// and returns that neighbour: directed, no in-edges and a single out-edge;
// undirected, a single edge.
func foldsInto(g *graph.Graph, v graph.V) (graph.V, bool) {
	if g.OutDegree(v) != 1 || g.Directed() && g.InDegree(v) != 0 {
		return -1, false
	}
	return g.Out(v)[0], true
}

// fold decides which vertices of s are γ-folded against g, whose rows it goes
// by, and fills foldedInto, Gamma and Roots; s is still in the input layout,
// whatever it ends in. A vertex u is removed from the root set and folded
// into γ of its neighbour p when foldsInto says so (with an id tie-break so
// mutually-qualifying pairs keep one root).
func (s *Subgraph) fold(g *graph.Graph, disableGamma bool) {
	s.foldedInto = make([]int32, len(s.Verts))
	for l := range s.foldedInto {
		s.foldedInto[l] = -1
	}
	if !disableGamma {
		for l, v := range s.Verts {
			p, ok := foldsInto(g, v)
			if !ok {
				continue
			}
			if _, pToo := foldsInto(g, p); pToo && v < p {
				continue // keep the smaller id as the surviving root
			}
			lp := s.LocalID(p)
			if lp < 0 {
				continue
			}
			s.foldedInto[l] = lp
			s.Gamma[lp]++
		}
	}
	for l, into := range s.foldedInto {
		if into < 0 {
			s.Roots = append(s.Roots, int32(l))
		}
	}
}

// Folded reports whether local vertex l is γ-folded: out of the root set and
// out of the swept graph.
func (s *Subgraph) Folded(l int32) bool { return s.foldedInto[l] >= 0 }

// strip takes the folded vertices out of the CSR in place, leaving the swept
// graph: a folded vertex's row becomes empty and the rows of the vertices it
// was folded into lose it. Only those rows are filtered — a directed folded
// vertex has no in-arc, an undirected one occurs in its parent's row alone —
// and every other row moves down as a block.
func (s *Subgraph) strip() {
	if len(s.Roots) == len(s.Verts) {
		return
	}
	var at int64
	for l := range s.Verts {
		lo, hi := s.offs[l], s.offs[l+1]
		s.offs[l] = at
		switch {
		case s.foldedInto[l] >= 0:
		case s.directed || s.Gamma[l] == 0:
			if at != lo {
				copy(s.adj[at:], s.adj[lo:hi])
				if s.wts != nil {
					copy(s.wts[at:], s.wts[lo:hi])
				}
			}
			at += hi - lo
		default:
			for i := lo; i < hi; i++ {
				if w := s.adj[i]; s.foldedInto[w] < 0 {
					s.adj[at] = w
					if s.wts != nil {
						s.wts[at] = s.wts[i]
					}
					at++
				}
			}
		}
	}
	s.offs[len(s.Verts)] = at
	s.adj = s.adj[:at]
	if s.wts != nil {
		s.wts = s.wts[:at]
	}
}
