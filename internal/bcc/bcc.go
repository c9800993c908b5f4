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
// Membership is two flat lists with offsets, blocks' vertices and vertices'
// blocks, read through Result.Block and Result.Blocks.
package bcc

import (
	"slices"

	"repro/internal/graph"
)

// Result describes the biconnected decomposition of the *undirected view* of
// a graph.
type Result struct {
	// IsArticulation[v] reports whether removing v disconnects its component.
	IsArticulation []bool
	// Block b's vertices are members[blockEnd[b]:blockEnd[b+1]]; blocks are
	// numbered in the order the depth-first search completes them.
	members  []graph.V
	blockEnd []int32
	// Vertex v's blocks are blockIDs[vertEnd[v]:vertEnd[v+1]], ascending.
	vertEnd  []int32
	blockIDs []int32
}

// NumBlocks returns the number of biconnected components.
func (r *Result) NumBlocks() int { return len(r.blockEnd) - 1 }

// Block returns the distinct vertices of block b, read-only and capped.
func (r *Result) Block(b int32) []graph.V {
	lo, hi := r.blockEnd[b], r.blockEnd[b+1]
	return r.members[lo:hi:hi]
}

// Blocks returns the blocks containing v in increasing block id, read-only
// and capped: several iff v is an articulation point, none iff v is isolated.
func (r *Result) Blocks(v graph.V) []int32 {
	lo, hi := r.vertEnd[v], r.vertEnd[v+1]
	return r.blockIDs[lo:hi:hi]
}

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
	return min(r.blockIDs[r.vertEnd[u+1]-1], r.blockIDs[r.vertEnd[w+1]-1])
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
// is one block. The block lists and their inverse are flat arrays, sized
// before the search: every non-root vertex is popped once and every block
// pops at least one, so there are at most n−1 blocks and fewer than 2n
// members, and neither list's appends ever copy it.
func Find(g *graph.Graph) *Result {
	und := g.Undirected()
	n := und.NumVertices()
	res := &Result{IsArticulation: make([]bool, n)}
	disc := slices.Repeat([]int32{-1}, n)
	low := make([]int32, n)
	var timer int32
	var stack []frame
	var vstack []graph.V                    // discovered vertices not yet assigned to a block
	members := make([]graph.V, 0, 2*n)      // block vertex lists, back to back
	blockEnd := make([]int32, 1, max(n, 1)) // block b is members[blockEnd[b]:blockEnd[b+1]]

	for r := graph.V(0); int(r) < n; r++ {
		if disc[r] != -1 {
			continue
		}
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
			}
		}
	}

	// Invert members. Until the ids are written vertEnd[v+1] is where v's
	// next one goes: its start once the counts are summed, its end once it is
	// full. Blocks are visited in id order, so every vertex's ids ascend. A
	// vertex is an articulation point iff it lies in several blocks.
	vertEnd := make([]int32, n+1)
	for _, v := range members {
		vertEnd[v+1]++
	}
	var at int32
	for v := 1; v <= n; v++ {
		c := vertEnd[v]
		vertEnd[v] = at
		at += c
	}
	ids := make([]int32, len(members))
	for b := 0; b+1 < len(blockEnd); b++ {
		for _, v := range members[blockEnd[b]:blockEnd[b+1]] {
			ids[vertEnd[v+1]] = int32(b)
			vertEnd[v+1]++
		}
	}
	for v := range res.IsArticulation {
		res.IsArticulation[v] = vertEnd[v+1]-vertEnd[v] > 1
	}
	res.members, res.blockEnd, res.vertEnd, res.blockIDs = members, blockEnd, vertEnd, ids
	return res
}

// CountArticulationPoints is a convenience for the motivation census
// (Figure 2): it returns the number of articulation points and the number of
// degree-1 vertices of the undirected view.
func CountArticulationPoints(g *graph.Graph) (aps, degree1 int) {
	aps = len(Find(g).ArticulationPoints())
	und := g.Undirected()
	for v := 0; v < und.NumVertices(); v++ {
		if und.OutDegree(graph.V(v)) == 1 {
			degree1++
		}
	}
	return aps, degree1
}
