package decompose

import (
	"cmp"
	"slices"

	"repro/internal/bcc"
	"repro/internal/graph"
)

// The sweep's vertex order (DESIGN.md §4). A sweep is bound by loads of
// per-vertex state at the far end of an arc, so what a local id costs is where
// its record lies relative to the ones touched around the same time. Input
// order is good when the input was laid out by someone — a row-major lattice —
// and bad when ids are hashes of nothing, as an R-MAT's are: its hubs, which
// every sweep touches at every level, lie scattered over the whole array.
// hasHub tells the two apart from the sub-graph alone, and relabel lays the
// second kind out for the cache.

// sweptDegree returns the out-degree local vertex l will have in the swept
// graph, while offs still holds the unswept row sizes of the input layout
// (buildSubgraphs, pass 2) and fold has run: a folded vertex keeps no arc, an
// undirected vertex loses the leaves folded into it, and a directed folded
// vertex, having no in-arc, was in no row to begin with.
func (s *Subgraph) sweptDegree(l int32) int64 {
	switch {
	case s.foldedInto[l] >= 0:
		return 0
	case s.directed:
		return s.offs[l+1]
	default:
		return s.offs[l+1] - int64(s.Gamma[l])
	}
}

// isHub is the bound itself: degree ≥ hubRatio × arcs/swept, in integers.
func isHub(degree, arcs int64, swept int) bool {
	return arcs > 0 && degree*int64(swept) >= hubRatio*arcs
}

// hasHub reports whether s's swept graph has a vertex of out-degree at least
// hubRatio times the mean; s is as sweptDegree needs it.
func (s *Subgraph) hasHub() bool {
	var arcs, most int64
	for _, l := range s.Roots {
		deg := s.sweptDegree(l)
		arcs += deg
		most = max(most, deg)
	}
	return isHub(most, arcs, len(s.Roots))
}

// relabel finishes the build of a sub-graph with a hub: it chooses the local
// ids, moves everything indexed by them, and writes the swept CSR under them.
// On entry s is as fold left it — input layout, unswept row sizes in offs, no
// adjacency yet — and local maps every vertex of s to its local id there; on
// return local maps them to the new ids.
//
// The order: the hubs (isHub) by descending swept degree; then the rest of the
// swept graph breadth-first from them, rows read in input order, restarting
// at the first swept vertex not yet reached when a directed sub-graph leaves
// some unreached; then the γ-folded vertices. Ties go by input id throughout,
// so the layout is a function of the sub-graph alone and two builds of one
// edge set are SweepEqual. The hubs share a few cache lines at the front, a
// level's vertices lie near the levels next to it, and the folded vertices,
// which no sweep visits, pad no line a sweep reads.
//
// What is a sequence of vertices rather than an index keeps its sequence and
// has its values renamed: Arts, whose positions the α/β composition
// addresses, and Roots, which stays in global-id order so that a root-budget
// prefix, a scheduler's root range and approx's pivots name the same vertices
// under either layout.
//
// The rows need no sort. Row u of the swept graph is the set of w with an arc
// u->w; walking w in ascending new id over its in-arcs in g (an undirected
// graph's in-arcs are its out-arcs) appends w to each such row in ascending
// order. An arc of a boundary AP is s's when its block is in s's group.
func (s *Subgraph) relabel(g *graph.Graph, res *bcc.Result, blockGroup, home, local []int32) {
	nl, ns := len(s.Verts), len(s.Roots)
	group := int32(s.ID)
	// foreign reports whether the arc between x, a boundary AP of s, and y
	// belongs to another group: y's home, if it has one, else their block's.
	foreign := func(x, y graph.V) bool {
		if h := home[y]; h >= 0 {
			return h != group
		}
		return blockGroup[res.EdgeBlock(x, y)] != group
	}
	order := make([]int32, ns, nl) // new id -> input-layout id
	perm := make([]int32, nl)      // and back
	tmp := make([]int32, nl)       // swept degrees, then a copy of the array being moved

	// While the order is being chosen a placed vertex's entry of local holds
	// the complement of its new id and an unplaced one's its input-layout id
	// still, so one load tells the search both whether and whom it found. The
	// folded vertices' places are known beforehand, the hubs' once sorted.
	var arcs int64
	for l, v := range s.Verts {
		tmp[l] = int32(s.sweptDegree(int32(l)))
		arcs += int64(tmp[l])
		if s.foldedInto[l] >= 0 {
			local[v] = ^int32(len(order))
			order = append(order, int32(l))
		}
	}
	hubs := order[:0]
	for _, l := range s.Roots {
		if isHub(int64(tmp[l]), arcs, ns) {
			hubs = append(hubs, l)
		}
	}
	slices.SortStableFunc(hubs, func(a, b int32) int { return cmp.Compare(tmp[b], tmp[a]) })
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
			if art && foreign(v, w) {
				continue
			}
			if lw := local[w]; lw >= 0 {
				order[placed] = lw
				local[w] = ^int32(placed)
				placed++
			}
		}
	}
	for i, l := range order {
		perm[l] = int32(i)
	}

	// Until the rows are written offs[l+1] is where row l's next arc goes:
	// its start now, its end — row l+1's start — once it is full.
	offs := s.offs
	offs[0], offs[1] = 0, 0
	for i, l := range order[:nl-1] {
		offs[i+2] = offs[i+1] + int64(tmp[l])
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

	adj := make([]int32, arcs)
	var wts []float64
	if g.Weighted() {
		wts = make([]float64, arcs)
	}
	for w := int32(0); int(w) < ns; w++ {
		x := s.Verts[w]
		art := s.IsArt[w]
		var weights []float64
		if wts != nil {
			weights = g.InWeights(x)
		}
		for i, y := range g.In(x) {
			if art && foreign(x, y) {
				continue
			}
			u := local[y]
			if int(u) >= ns {
				continue // a folded leaf of x
			}
			pos := offs[u+1]
			offs[u+1] = pos + 1
			adj[pos] = w
			if weights != nil {
				wts[pos] = weights[i]
			}
		}
	}
	s.adj, s.wts = adj, wts
}
