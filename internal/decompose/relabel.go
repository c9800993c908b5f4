package decompose

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// The sweep's vertex order (DESIGN.md §4). A sweep is bound by loads of
// per-vertex state at the far end of an arc, so what a local id costs is where
// its record lies relative to the ones touched around the same time. Input
// order is good when the input was laid out by someone — a row-major lattice —
// and bad when ids are hashes of nothing, as an R-MAT's are: its hubs, which
// every sweep touches at every level, lie scattered over the whole array.
// hasHub tells the two apart from the sub-graph alone, and hubOrder lays the
// second kind out for the cache. Either way layout puts the swept vertices
// first: the swept graph is the local-id prefix [0, len(Roots)).

// sweptDegrees turns offs[l+1] from row l's unswept size in the input layout
// (buildSubgraphs, pass 2), once fold has run, into its size in the swept
// graph: a folded vertex keeps no arc, an undirected vertex loses the leaves
// folded into it, and a directed folded vertex, having no in-arc, was in no
// row to begin with.
func (s *Subgraph) sweptDegrees() {
	for l, into := range s.foldedInto {
		if into >= 0 {
			s.offs[l+1] = 0
		} else if !s.directed {
			s.offs[l+1] -= int64(s.Gamma[l])
		}
	}
}

// isHub is the bound itself: degree ≥ hubRatio × arcs/swept, in integers.
func isHub(degree, arcs int64, swept int) bool {
	return arcs > 0 && degree*int64(swept) >= hubRatio*arcs
}

// hasHub reports whether s's swept graph has a vertex of out-degree at least
// hubRatio times the mean; offs holds the swept degrees (sweptDegrees).
func (s *Subgraph) hasHub() bool {
	var arcs, most int64
	for _, deg := range s.offs[1:] {
		arcs += deg
		most = max(most, deg)
	}
	return isHub(most, arcs, len(s.Roots))
}

// layout gives s's local ids the one shape every sub-graph has: the swept
// vertices are the ids [0, len(Roots)) — in global-id order, or in hubOrder's
// when the swept graph has a hub — and the γ-folded ones the rest, in global-id
// order. It moves everything indexed by local id, offs[l+1] (the swept
// out-degree) among it; Arts and Roots keep their sequence with values renamed,
// Roots in global-id order so that a root-budget prefix, a root range and
// approx's pivots name the same vertices whatever the order. On entry s is in
// the input layout with no adjacency yet, and local maps s's vertices to their
// ids there; on return, to the final ids. scratch holds three ints per vertex
// of s; the groups share it.
func (s *Subgraph) layout(g *graph.Graph, owner *apArcs, local, scratch []int32) {
	nl, ns := len(s.Verts), len(s.Roots)
	order := scratch[:nl]       // new id -> input-layout id
	perm := scratch[nl : 2*nl]  // and back
	tmp := scratch[2*nl : 3*nl] // swept degrees, then a copy of the array being moved
	folded := ns
	for l, into := range s.foldedInto {
		tmp[l] = int32(s.offs[l+1])
		if into >= 0 {
			order[folded] = int32(l)
			folded++
		}
	}
	if s.relabelled {
		s.hubOrder(g, owner, local, order, tmp)
	} else {
		copy(order, s.Roots)
	}
	for i, l := range order {
		perm[l] = int32(i)
		s.offs[i+1] = int64(tmp[l])
	}
	copy(tmp, s.Verts)
	for i, l := range order {
		s.Verts[i] = tmp[l]
		local[tmp[l]] = int32(i)
	}
	copy(tmp, s.Gamma)
	for i, l := range order {
		s.Gamma[i] = tmp[l]
	}
	copy(tmp, s.foldedInto)
	for i, l := range order {
		if s.foldedInto[i] = tmp[l]; tmp[l] >= 0 {
			s.foldedInto[i] = perm[tmp[l]]
		}
	}
	clear(s.IsArt)
	for k, l := range s.Arts {
		s.Arts[k] = perm[l]
		s.IsArt[perm[l]] = true
	}
	for k, l := range s.Roots {
		s.Roots[k] = perm[l]
	}
}

// hubOrder fills order[:len(Roots)] with a hub sub-graph's swept vertices,
// by input-layout id (order[len(Roots):] holds the folded ones, deg the swept
// degrees): the hubs (isHub) by descending swept degree, then the rest
// breadth-first from them, rows read in input order, restarting at the first
// unreached swept vertex when a directed sub-graph leaves some. Ties go by
// input id, so the layout is a function of the sub-graph alone. The hubs share
// a few cache lines, and a level's vertices lie near the levels next to it.
func (s *Subgraph) hubOrder(g *graph.Graph, owner *apArcs, local, order, deg []int32) {
	ns := len(s.Roots)
	group := int32(s.ID)

	// While the order is being chosen a placed vertex's entry of local holds
	// the complement of its new id and an unplaced one's its input-layout id
	// still, so one load tells the search both whether and whom it found. The
	// folded vertices' places are known beforehand, the hubs' once sorted.
	var arcs int64
	for _, d := range deg {
		arcs += int64(d)
	}
	for i, l := range order[ns:] {
		local[s.Verts[l]] = ^int32(ns + i)
	}
	hubs := order[:0]
	for _, l := range s.Roots {
		if isHub(int64(deg[l]), arcs, ns) {
			hubs = append(hubs, l)
		}
	}
	slices.SortStableFunc(hubs, func(a, b int32) int { return cmp.Compare(deg[b], deg[a]) })
	for i, l := range hubs {
		local[s.Verts[l]] = ^int32(i)
	}
	placed, restart := len(hubs), 0
	for head := 0; placed < ns; head++ {
		if head == placed {
			for local[s.Verts[s.Roots[restart]]] < 0 {
				restart++
			}
			order[placed] = s.Roots[restart]
			local[s.Verts[order[placed]]] = ^int32(placed)
			placed++
		}
		v := s.Verts[order[head]]
		art := s.IsArt[order[head]]
		for _, w := range g.Out(v) {
			if art && owner.group(v, w) != group {
				continue
			}
			if lw := local[w]; lw >= 0 {
				order[placed] = lw
				local[w] = ^int32(placed)
				placed++
			}
		}
	}
}
