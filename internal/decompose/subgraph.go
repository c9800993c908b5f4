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
// swept degree before a single arc is stored. An arc belongs to the group of
// its undirected edge's block (apArcs.group): for a home vertex that is the
// whole row; a boundary AP's row is counted out, and its in-arcs dealt, arc by
// arc through a group-indexed table, so pass 2 reads an AP's rows the same
// few times however many groups it joins. Then each group keeps the input
// layout, local ids monotone in global ids, or, when its swept graph has a hub
// (hasHub), takes the layout relabel chooses for the cache; either way
// writeRows writes its swept rows once, under their final ids.
func buildSubgraphs(d *Decomposition, g *graph.Graph, res *bcc.Result, blockGroup []int32, numGroups int, disableGamma bool) {
	n := g.NumVertices()
	const isolated, boundary = -1, -2

	// Pass 1: classify the vertices and size the groups. A boundary AP gets
	// one entry per group it joins, contiguous in apGroup: local[v] indexes
	// apFirst, whose consecutive values bracket v's entries, until the last
	// loop rewrites it. For every other vertex local[v] is its local id in its
	// home group.
	if g.Directed() {
		g.EnsureTranspose()
	}
	home := make([]int32, n)
	local := make([]int32, n)
	vertOff := make([]int32, numGroups+1)
	artOff := make([]int32, numGroups+1)
	var apGroup []int32
	apFirst := []int32{0}
	var apInArcs int64
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
		apInArcs += int64(g.InDegree(graph.V(v)))
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

	// Pass 2: hand out local ids in id order and size every local row: after
	// it offs[l+1] is row l's size in the input, unswept. A boundary AP's
	// in-arcs are dealt to its groups too (apArcs).
	owner := &apArcs{
		res: res, blockGroup: blockGroup, home: home, artOff: artOff,
		slotEntry: make([]int32, artOff[numGroups]),
		inOff:     make([]int64, len(apGroup)+1),
		in:        make([]int32, apInArcs),
	}
	rowAt := make([]int64, numGroups) // the current AP's row size, then in-arc cursor, in each of its groups
	for v := graph.V(0); int(v) < n; v++ {
		switch h := home[v]; h {
		case isolated:
		case boundary:
			lo, hi := apFirst[local[v]], apFirst[local[v]+1]
			for e := lo; e < hi; e++ {
				gr := apGroup[e]
				sg := subs[gr]
				l := int32(len(sg.Verts))
				owner.slotEntry[artOff[gr]+int32(len(sg.Arts))] = e
				sg.Verts = append(sg.Verts, v)
				sg.IsArt[l] = true
				sg.Arts = append(sg.Arts, l)
			}
			for _, w := range g.Out(v) {
				rowAt[owner.group(v, w)]++
			}
			for e := lo; e < hi; e++ {
				gr := apGroup[e]
				subs[gr].offs[len(subs[gr].Verts)] = rowAt[gr]
				rowAt[gr] = 0
			}
			in := g.In(v)
			for _, y := range in {
				rowAt[owner.group(v, y)]++
			}
			for e := lo; e < hi; e++ {
				gr := apGroup[e]
				owner.inOff[e+1] = owner.inOff[e] + rowAt[gr]
				rowAt[gr] = owner.inOff[e]
			}
			for i, y := range in {
				gr := owner.group(v, y)
				owner.in[rowAt[gr]] = int32(i)
				rowAt[gr]++
			}
			for e := lo; e < hi; e++ {
				rowAt[apGroup[e]] = 0
			}
		default:
			sg := subs[h]
			local[v] = int32(len(sg.Verts))
			sg.Verts = append(sg.Verts, v)
			sg.offs[local[v]+1] = int64(g.OutDegree(v))
		}
	}

	// Finish the groups one by one: fold the γ leaves (Theorem 3's
	// total-redundancy elimination), choose the layout and write the swept
	// rows. Home vertices' entries of local are input-layout ids from pass 2;
	// each group overwrites its boundary APs' entries before reading them.
	for _, sg := range subs {
		for _, l := range sg.Arts {
			local[sg.Verts[l]] = l
		}
		sg.fold(g, disableGamma)
		sg.sweptDegrees()
		if sg.relabelled = sg.hasHub(); sg.relabelled {
			sg.relabel(g, owner, local)
		}
		sg.writeRows(g, owner, local)
	}
}

// apArcs tells which group an arc of a boundary AP belongs to — the group of
// the arc's block (bcc.Result.EdgeBlock) — and holds each boundary AP's
// in-arcs dealt to its groups, so that a group reads only its own share of an
// AP's row: read whole once per group, the row of a hub that joins k groups
// would cost k times its length.
type apArcs struct {
	res              *bcc.Result
	blockGroup, home []int32
	// The in-arcs of a boundary AP v that belong to one of its groups, its
	// entry e there, are g.In(v)[i] for i in in[inOff[e]:inOff[e+1]],
	// ascending. slotEntry maps group gr's k-th boundary AP, slot
	// artOff[gr]+k, to its entry.
	artOff, slotEntry []int32
	inOff             []int64
	in                []int32
}

// group returns the group of the arc between x, a boundary AP, and y: y's
// home, if it has one, else their block's.
func (o *apArcs) group(x, y graph.V) int32 {
	if h := o.home[y]; h >= 0 {
		return h
	}
	return o.blockGroup[o.res.EdgeBlock(x, y)]
}

// inArcs returns the positions in g.In(x) of the in-arcs of x, a boundary AP
// of s, that belong to s. s.Arts is in global-id order under either layout.
func (o *apArcs) inArcs(s *Subgraph, x graph.V) []int32 {
	k, _ := sort.Find(len(s.Arts), func(k int) int { return int(x) - int(s.Verts[s.Arts[k]]) })
	e := o.slotEntry[o.artOff[s.ID]+int32(k)]
	return o.in[o.inOff[e]:o.inOff[e+1]]
}

// writeRows writes s's swept CSR under its final local ids, which local maps
// s's vertices to; on entry offs[l+1] is vertex l's swept out-degree.
//
// The rows need no sort. Row u of the swept graph is the set of swept w with
// an arc u->w; walking w in ascending local id over its in-arcs in g (an
// undirected graph's in-arcs are its out-arcs) appends w to each such row in
// ascending order. A boundary AP's in-arcs are the ones owner dealt to s, and
// an arc from a folded vertex is in no row: relabel puts the folded vertices
// last, where an id test finds them; in the input layout they lie among the
// others, but only a vertex with γ > 0 has one among its in-arcs.
func (s *Subgraph) writeRows(g *graph.Graph, owner *apArcs, local []int32) {
	offs, foldedInto := s.offs, s.foldedInto
	// Until the rows are written offs[l+1] is where row l's next arc goes:
	// its start now, its end — row l+1's start — once it is full.
	var arcs int64
	for l := 1; l < len(offs); l++ {
		deg := offs[l]
		offs[l] = arcs
		arcs += deg
	}
	adj := make([]int32, arcs)
	var wts []float64
	if g.Weighted() {
		wts = make([]float64, arcs)
	}
	swept := int32(len(s.Verts)) // local ids from here on are folded
	if s.relabelled {
		swept = int32(len(s.Roots))
	}
	for w := int32(0); w < swept; w++ {
		if foldedInto[w] >= 0 {
			continue
		}
		x := s.Verts[w]
		in := g.In(x)
		var weights []float64
		if wts != nil {
			weights = g.InWeights(x)
		}
		art := s.IsArt[w]
		var mine []int32 // an AP's in-arcs in s, by position in in
		n := len(in)
		if art {
			mine = owner.inArcs(s, x)
			n = len(mine)
		}
		mayFold := !s.relabelled && s.Gamma[w] > 0
		for j := 0; j < n; j++ {
			i := j
			if art {
				i = int(mine[j])
			}
			u := local[in[i]]
			if u >= swept || mayFold && foldedInto[u] >= 0 {
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
