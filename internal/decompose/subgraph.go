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
// few times however many groups it joins. Then each group takes its final
// layout (relabel.go): the swept vertices are the local ids [0, len(Roots)) —
// in global-id order, or, when the swept graph has a hub (hasHub), in the order
// hubOrder chooses for the cache — and the folded vertices the rest; writeRows
// writes the swept rows once, under their final ids.
func buildSubgraphs(d *Decomposition, g *graph.Graph, res *bcc.Result, blockGroup []int32, numGroups int, disableGamma bool) {
	n := g.NumVertices()

	// Pass 1: classify the vertices and size the groups. home[v] is v's home
	// group, isolated, or apMember(a) for boundary AP node a, which gets one
	// entry per group it joins, contiguous in apGroup and bracketed by
	// apFirst[a] and apFirst[a+1].
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
	lastAP := slices.Repeat([]int32{-1}, numGroups) // last boundary AP entered into each group
	for v := 0; v < n; v++ {
		blocks := res.Blocks(graph.V(v))
		if len(blocks) == 0 {
			home[v] = isolated
			continue
		}
		h := blockGroup[blocks[0]]
		for _, b := range blocks[1:] {
			if blockGroup[b] != h {
				h = apMember(int32(len(apFirst) - 1))
				break
			}
		}
		home[v] = h
		if h >= 0 {
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
		apFirst = append(apFirst, int32(len(apGroup)))
		apInArcs += int64(g.InDegree(graph.V(v)))
	}
	d.NumArticulation = len(apFirst) - 1
	for gr := 0; gr < numGroups; gr++ {
		vertOff[gr+1] += vertOff[gr]
		artOff[gr+1] += artOff[gr]
	}
	d.forest = newForest(artOff, apFirst, apGroup)
	d.member = home

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
		switch h := home[v]; {
		case h == isolated:
		case h < isolated:
			a := apMember(h)
			lo, hi := apFirst[a], apFirst[a+1]
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
	// total-redundancy elimination), lay out the local ids and write the swept
	// rows. Home vertices' entries of local are input-layout ids from pass 2;
	// each group writes its boundary APs' entries before reading them.
	var most int32
	for gr := 0; gr < numGroups; gr++ {
		most = max(most, vertOff[gr+1]-vertOff[gr])
	}
	var scratch []int32 // layout's, shared by the groups, made when one needs it
	for _, sg := range subs {
		for _, l := range sg.Arts {
			local[sg.Verts[l]] = l
		}
		sg.fold(g, local, disableGamma)
		sg.sweptDegrees()
		sg.relabelled = sg.hasHub()
		// Without a hub the input layout is final when no folded vertex lies
		// below a swept one (Roots ascend in it).
		if ns := len(sg.Roots); sg.relabelled || ns > 0 && sg.Roots[ns-1] != int32(ns-1) {
			if scratch == nil {
				scratch = make([]int32, 3*most)
			}
			sg.layout(g, owner, local, scratch)
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
// of s, that belong to s. s.Arts is in global-id order.
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
// an arc from a folded vertex is in no row: the folded vertices are the ids
// from len(Roots) on, where an id test finds them.
func (s *Subgraph) writeRows(g *graph.Graph, owner *apArcs, local []int32) {
	offs := s.offs
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
	swept := int32(len(s.Roots)) // local ids from here on are folded
	for w := int32(0); w < swept; w++ {
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
		for j := 0; j < n; j++ {
			i := j
			if art {
				i = int(mine[j])
			}
			u := local[in[i]]
			if u >= swept {
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
// which local maps s's vertices to. A vertex u is removed from the root set
// and folded into γ of its neighbour p when foldsInto says so (with an id
// tie-break so mutually-qualifying pairs keep one root). p shares u's one
// block, so it is a vertex of s.
func (s *Subgraph) fold(g *graph.Graph, local []int32, disableGamma bool) {
	s.foldedInto = slices.Repeat([]int32{-1}, len(s.Verts))
	if !disableGamma {
		for l, v := range s.Verts {
			p, ok := foldsInto(g, v)
			if !ok {
				continue
			}
			if _, pToo := foldsInto(g, p); pToo && v < p {
				continue // keep the smaller id as the surviving root
			}
			lp := local[p]
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
