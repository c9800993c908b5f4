package graph

import (
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
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if len(offs) != n+1 || (n > 0 && offs[0] != 0) || offs[n] != int64(len(adj)) {
		panic(fmt.Sprintf("graph: malformed offsets (len=%d, end=%d, arcs=%d)", len(offs), offs[n], len(adj)))
	}
	w := int64(0)
	newOffs := make([]int64, n+1)
	for u := 0; u < n; u++ {
		lo, hi := offs[u], offs[u+1]
		if hi < lo {
			panic(fmt.Sprintf("graph: vertex %d: non-monotone offsets", u))
		}
		row := adj[lo:hi]
		slices.Sort(row)
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
	return &Graph{n: n, directed: directed, offs: newOffs, adj: adj[:w:w]}
}
