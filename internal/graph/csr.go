package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NewFromCSR adopts a prebuilt CSR directly — no edge list, no copy. It is
// the constructor behind the scale pipeline: graphio's streaming and
// memory-mapped readers hand their offset/adjacency arrays straight to it,
// so loading a multi-million-edge graph never materializes anything beyond
// the CSR itself.
//
// The arrays are validated, not trusted (binary files may be hostile or
// corrupt): offs must be a monotone prefix-sum starting at 0 and ending at
// len(adj); every row must be strictly increasing (sorted, duplicate-free)
// with neighbors in [0, n) and no self-loops; and for undirected graphs
// every arc u->v must have its mirror v->u, since the whole engine stack
// (BCC, decomposition, bottom-up BFS) assumes symmetric adjacency. The
// validation is O(n + m): one pass over the rows, then for undirected graphs
// one more with a read cursor per row (see below) and n int64s of scratch.
//
// The caller transfers ownership: adj may be backing a read-only mmap, so
// the Graph never writes to either array (the lazily built transpose is a
// fresh allocation).
func NewFromCSR(n int, offs []int64, adj []V, directed bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(offs) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want %d", len(offs), n+1)
	}
	if n > 0 && offs[0] != 0 {
		return nil, fmt.Errorf("graph: offsets must start at 0, got %d", offs[0])
	}
	if len(offs) > 0 && offs[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets end at %d, adjacency has %d arcs", offs[n], len(adj))
	}
	for u := 0; u < n; u++ {
		lo, hi := offs[u], offs[u+1]
		if hi < lo {
			return nil, fmt.Errorf("graph: vertex %d: non-monotone offsets %d > %d", u, lo, hi)
		}
		prev := V(-1)
		for _, v := range adj[lo:hi] {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range [0,%d)", u, v, n)
			}
			if v == V(u) {
				return nil, fmt.Errorf("graph: vertex %d: self-loop", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: vertex %d: row not strictly increasing at neighbor %d", u, v)
			}
			prev = v
		}
	}
	if !directed {
		// Mirror check. Row v of a symmetric CSR lists exactly the sources u
		// of arcs u->v, ascending; visiting the sources in ascending order,
		// each arc u->v must therefore find u as the next unread entry of
		// row v. Every accepted arc consumed its own mirror, so nothing but
		// a symmetric CSR passes.
		next := make([]int64, n)
		copy(next, offs)
		for u := 0; u < n; u++ {
			for _, v := range adj[offs[u]:offs[u+1]] {
				c := next[v]
				if c < offs[v+1] && adj[c] == V(u) {
					next[v] = c + 1
					continue
				}
				if c < offs[v+1] && adj[c] < V(u) {
					// An earlier source was skipped: row v names it, but
					// its own row did not name v.
					return nil, fmt.Errorf("graph: undirected CSR missing mirror arc %d->%d", adj[c], v)
				}
				return nil, fmt.Errorf("graph: undirected CSR missing mirror arc %d->%d", v, u)
			}
		}
	}
	return &Graph{n: n, directed: directed, offs: offs, adj: adj}, nil
}

// Splice returns g with the edges of add inserted and those of del removed
// (both arcs of each if g is undirected), built from g's CSR without an edge
// list: untouched rows are copied a run at a time, and each touched row is
// merged with its sorted edits. The result is NewFromEdges' on g's edges less
// del plus add (a present insert or an absent removal changes nothing, a
// self-loop is dropped, an arc in both lists is removed), in O(n + m + k log k)
// for k edits. g must be unweighted; with no edits it is returned as it is.
func (g *Graph) Splice(add, del []Edge) *Graph {
	if len(add)+len(del) == 0 {
		return g
	}
	if g.wts != nil {
		panic("graph: Splice of a weighted graph")
	}
	type arc struct {
		u, v V
		add  bool
	}
	var arcs []arc
	for i, e := range slices.Concat(add, del) {
		if e.From < 0 || int(e.From) >= g.n || e.To < 0 || int(e.To) >= g.n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, g.n))
		}
		arcs = append(arcs, arc{e.From, e.To, i < len(add)})
		if !g.directed {
			arcs = append(arcs, arc{e.To, e.From, i < len(add)})
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v)) })
	offs := make([]int64, g.n+1)
	adj := make([]V, 0, len(g.adj)+2*len(add))
	done := 0 // rows below done are written, and offs up to done
	copyRows := func(to int) {
		shift := int64(len(adj)) - g.offs[done]
		adj = append(adj, g.adj[g.offs[done]:g.offs[to]]...)
		for x := done + 1; x <= to; x++ {
			offs[x] = g.offs[x] + shift
		}
		done = to
	}
	for i := 0; i < len(arcs); {
		u := arcs[i].u
		copyRows(int(u))
		row := g.Out(u)
		for i < len(arcs) && arcs[i].u == u {
			v := arcs[i].v
			at, keep := slices.BinarySearch(row, v)
			adj, row = append(adj, row[:at]...), row[at:]
			if keep {
				row = row[1:]
			}
			removed := false
			for ; i < len(arcs) && arcs[i].u == u && arcs[i].v == v; i++ {
				keep, removed = keep || arcs[i].add, removed || !arcs[i].add
			}
			if keep && !removed && v != u {
				adj = append(adj, v)
			}
		}
		adj = append(adj, row...)
		offs[u+1] = int64(len(adj))
		done = int(u) + 1
	}
	copyRows(g.n)
	return &Graph{n: g.n, directed: g.directed, offs: offs, adj: adj}
}

// NewFromCSRUnsorted adopts a raw CSR whose rows may be unsorted and contain
// duplicates and self-loops, canonicalizing in place (sort, dedup, self-loop
// drop) before adoption. It is the finishing step of gen.BuildCSR: parallel
// chunk generators place arcs at racy cursor positions, so row order is
// nondeterministic — canonicalization makes the final graph a pure function
// of the edge multiset, independent of worker count.
//
// For undirected graphs the caller must have placed both directions of every
// edge (duplicates collapse consistently on both sides, so symmetry is
// preserved by construction). Out-of-range neighbors panic, mirroring
// NewFromEdges: silent truncation would corrupt experiments.
func NewFromCSRUnsorted(n int, offs []int64, adj []V, directed bool) *Graph {
	return canonicalize(n, offs, adj, nil, directed)
}

// canonicalize is the one edge-list canonicaliser: NewFromCSRUnsorted,
// NewFromEdges and NewWeightedFromEdges all finish here. wts, when non-nil,
// is parallel to adj; a weighted row sorts by (target, weight) and keeps the
// lightest of any parallel arcs.
func canonicalize(n int, offs []int64, adj []V, wts []float64, directed bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if len(offs) != n+1 || (n > 0 && offs[0] != 0) || offs[n] != int64(len(adj)) {
		panic(fmt.Sprintf("graph: malformed offsets (len=%d, end=%d, arcs=%d)", len(offs), offs[n], len(adj)))
	}
	w := int64(0)
	newOffs := make([]int64, n+1)
	var arcs []WeightedEdge
	for u := 0; u < n; u++ {
		lo, hi := offs[u], offs[u+1]
		if hi < lo {
			panic(fmt.Sprintf("graph: vertex %d: non-monotone offsets", u))
		}
		row := adj[lo:hi]
		if wts == nil {
			slices.Sort(row)
		} else {
			arcs = keepLightest(V(u), row, wts[lo:hi], wts[w:], arcs[:0])
		}
		newOffs[u] = w
		for i, v := range row {
			if v < 0 || int(v) >= n {
				panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, n))
			}
			if v == V(u) || (i > 0 && v == row[i-1]) {
				continue
			}
			adj[w] = v
			w++
		}
	}
	newOffs[n] = w
	g := &Graph{n: n, directed: directed, offs: newOffs, adj: adj[:w:w]}
	if wts != nil {
		g.wts = wts[:w:w]
	}
	return g
}

// keepLightest sorts row u by (target, weight), carrying rw along, and writes
// to dst, in row order, the weight of every arc canonicalize keeps: the first,
// so lightest, of each target. dst may overlap rw; arcs is scratch, returned
// for the next row.
func keepLightest(u V, row []V, rw, dst []float64, arcs []WeightedEdge) []WeightedEdge {
	for i, v := range row {
		arcs = append(arcs, WeightedEdge{u, v, rw[i]})
	}
	slices.SortFunc(arcs, func(a, b WeightedEdge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.W, b.W))
	})
	k := 0
	for i, a := range arcs {
		row[i] = a.To
		if a.To != u && (i == 0 || a.To != arcs[i-1].To) {
			dst[k] = a.W
			k++
		}
	}
	return arcs
}
