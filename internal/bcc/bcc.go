// Package bcc finds articulation points and biconnected components with an
// iterative Hopcroft–Tarjan depth-first search (paper §4, Algorithm 1's
// FINDBCC, citing [32]) in O(|V|+|E|) time. It is iterative because the
// paper's inputs reach millions of vertices and recursion would overflow the
// goroutine stack on path-like graphs.
//
// A biconnected component ("block") is a maximal edge set in which every two
// edges lie on a common simple cycle; bridges are single-edge blocks. Any
// connected graph decomposes into a tree of blocks attached at articulation
// points (property 3 of §3.1), which is exactly the structure the APGRE
// decomposition consumes.
//
// Blocks are reported as vertex sets. Two blocks share at most one vertex,
// so the vertex sets determine the edge partition (Result.EdgeBlock), and
// the search needs a vertex stack only: its state is a handful of
// vertex-sized arrays whatever the edge count.
package bcc

import (
	"repro/internal/graph"
)

// Result describes the biconnected decomposition of the *undirected view* of
// a graph.
type Result struct {
	// IsArticulation[v] reports whether removing v disconnects its component.
	IsArticulation []bool
	// BlockVerts[b] lists the distinct vertices of block b. Blocks are
	// numbered in the order the depth-first search completes them.
	BlockVerts [][]graph.V
	// VertexBlocks[v] lists the blocks containing v in increasing block id
	// (several iff v is an articulation point; empty iff v is isolated).
	VertexBlocks [][]int32
}

// NumBlocks returns the number of biconnected components.
func (r *Result) NumBlocks() int { return len(r.BlockVerts) }

// ArticulationPoints returns the sorted list of articulation points.
func (r *Result) ArticulationPoints() []graph.V {
	var out []graph.V
	for v, is := range r.IsArticulation {
		if is {
			out = append(out, graph.V(v))
		}
	}
	return out
}

// EdgeBlock returns the block holding the edge {u, w}; u and w must be
// adjacent in the undirected view. One endpoint is a DFS descendant of the
// other, and the edge lies in the block that completes the descendant's
// subtree — the last block the descendant joins, numbered no later than any
// block its ancestor joins last — so the answer is the smaller of the two
// endpoints' last block ids, in O(1).
func (r *Result) EdgeBlock(u, w graph.V) int32 {
	bu, bw := r.VertexBlocks[u], r.VertexBlocks[w]
	return min(bu[len(bu)-1], bw[len(bw)-1])
}

type frame struct {
	u, parent graph.V
	iter      int32
}

// Find computes the biconnected decomposition. Directed graphs are analyzed
// through their underlying undirected structure, exactly as the paper's
// GRAPHPARTITION does (Algorithm 1 line 1: GETUNDG).
//
// The search keeps a stack of discovered vertices: when a child u finishes
// with low[u] >= disc[p], everything from u to the top of that stack plus p
// is one block. Block and membership lists are carved from two flat arrays
// (every non-root vertex is popped once, so they hold at most n + #blocks
// entries), which keeps the allocation count independent of the graph.
func Find(g *graph.Graph) *Result {
	und := g.Undirected()
	n := und.NumVertices()
	res := &Result{IsArticulation: make([]bool, n)}
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	var timer int32
	var stack []frame
	var vstack []graph.V   // discovered vertices not yet assigned to a block
	var members []graph.V  // block vertex lists, back to back
	blockEnd := []int32{0} // block b is members[blockEnd[b]:blockEnd[b+1]]

	for r := graph.V(0); int(r) < n; r++ {
		if disc[r] != -1 {
			continue
		}
		rootChildren := 0
		stack = append(stack[:0], frame{u: r, parent: -1})
		vstack = vstack[:0]
		disc[r] = timer
		low[r] = timer
		timer++
	dfs:
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.u
			adj := und.Out(u)
			for int(f.iter) < len(adj) {
				v := adj[f.iter]
				f.iter++
				if disc[v] == -1 {
					if u == r {
						rootChildren++
					}
					vstack = append(vstack, v)
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{u: v, parent: u})
					continue dfs
				}
				// A back edge, unless it is the tree edge seen from below
				// (rows are duplicate-free, so the parent appears once).
				if v != f.parent && disc[v] < low[u] {
					low[u] = disc[v]
				}
			}
			// u is finished; fold into parent.
			stack = stack[:len(stack)-1]
			if f.parent < 0 {
				continue
			}
			p := f.parent
			if low[u] < low[p] {
				low[p] = low[u]
			}
			if low[u] >= disc[p] {
				// p separates u's subtree: it and p form a block.
				i := len(vstack) - 1
				for vstack[i] != u {
					i--
				}
				members = append(append(members, vstack[i:]...), p)
				blockEnd = append(blockEnd, int32(len(members)))
				vstack = vstack[:i]
				if p != r {
					res.IsArticulation[p] = true
				}
			}
		}
		if rootChildren > 1 {
			res.IsArticulation[r] = true
		}
	}

	// Carve the per-block and per-vertex lists out of members and ids; the
	// slices are capped so a caller's append cannot reach the next segment.
	// Blocks are visited in id order, so every VertexBlocks list ascends.
	count := make([]int32, n) // number of blocks containing each vertex
	for _, v := range members {
		count[v]++
	}
	res.VertexBlocks = make([][]int32, n)
	ids := make([]int32, len(members))
	at := int32(0)
	for v, c := range count {
		res.VertexBlocks[v] = ids[at : at : at+c]
		at += c
	}
	res.BlockVerts = make([][]graph.V, len(blockEnd)-1)
	for b := range res.BlockVerts {
		lo, hi := blockEnd[b], blockEnd[b+1]
		res.BlockVerts[b] = members[lo:hi:hi]
		for _, v := range members[lo:hi] {
			res.VertexBlocks[v] = append(res.VertexBlocks[v], int32(b))
		}
	}
	return res
}

// CountArticulationPoints is a convenience for the motivation census
// (Figure 2): it returns the number of articulation points and the number of
// degree-1 vertices of the undirected view.
func CountArticulationPoints(g *graph.Graph) (aps, degree1 int) {
	res := Find(g)
	for _, is := range res.IsArticulation {
		if is {
			aps++
		}
	}
	und := g.Undirected()
	for v := 0; v < und.NumVertices(); v++ {
		if und.OutDegree(graph.V(v)) == 1 {
			degree1++
		}
	}
	return aps, degree1
}
