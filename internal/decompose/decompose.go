// Package decompose implements the paper's graph partition (Algorithm 1,
// GRAPHPARTITION): it splits a graph into sub-graphs along articulation
// points by contracting the block-cut tree with a size threshold, writes a
// local CSR per sub-graph (in O(|V|+|E|) with no sort; see buildSubgraphs),
// and computes the three per-articulation-point quantities the APGRE
// dependencies need:
//
//	α_SGi(a) — #vertices a reaches outside SGi      (paper §3.1)
//	β_SGi(a) — #vertices outside SGi that reach a
//	γ_SGi(s) — #neighbours of s whose DAGs are derivable from D_s
//	            (no in-edges and a single out-edge to s; degree-1 leaves
//	            in the undirected case)
//
// What a finished Subgraph stores is its swept graph: the γ-folded vertices
// keep local ids, after every swept one, but none of their arcs is in the CSR
// (see Subgraph.Out), because nothing a sweep computes at them is unknown.
//
// Decomposition.SubgraphsOf says which sub-graphs hold a vertex, from the one
// int32 per vertex the partition classified it with, and allocates nothing.
//
// The order of a sub-graph's local ids is this package's choice, made for the
// sweep's cache behaviour (relabel.go, DESIGN.md §4 "The sweep's vertex
// order"). There is one shape: the swept vertices are the local ids
// [0, len(Roots)) and the folded ones the rest, in global-id order, so a
// sweep's per-vertex arrays end at len(Roots). The swept vertices are in
// global-id order too, unless the swept graph has a hub: then they are laid
// out hubs first, the rest breadth-first from them (Relabelled). One routine
// writes the swept rows, once and under the final ids, so every row ascends;
// Arts and Roots are in global-id order, and the layout is a function of the
// sub-graph's own vertices and arcs.
//
// Deviation from the paper, documented in DESIGN.md: disconnected inputs are
// decomposed per connected component (each component gets its own top block)
// instead of lumping all unvisited blocks into one residual sub-graph; this
// preserves correctness for arbitrary inputs. Isolated vertices produce no
// sub-graph (their BC terms are all zero).
package decompose

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bcc"
	"repro/internal/graph"
)

// DefaultThreshold is the block-merge threshold used when Options.Threshold
// is unset. The paper does not publish its THRESHOLD; 64 keeps tiny blocks
// from becoming scheduling overhead while leaving real communities separate,
// and BenchmarkAblationThreshold sweeps it.
const DefaultThreshold = 64

// hubRatio is the one bound of the layout rule (relabel.go): a sub-graph's
// local ids are chosen for the cache when its swept graph has a hub, a vertex
// of out-degree at least hubRatio times the mean. Power-law inputs have one by
// a wide margin and lattices do not — the benchmark's R-MAT top sub-graph reads
// 296×, its community graph's 40×, its road lattice's 1.1× — and that is the
// property that decides whether input order is already a good layout: 2…32
// measure within a few points of each other on the R-MAT (EXPERIMENTS.md "The
// sweep's vertex order"). A constant: nothing sets it, tests included.
const hubRatio = 8

// Options configures Decompose.
type Options struct {
	// Threshold is Algorithm 1's THRESHOLD: a non-top block smaller than
	// this merges into its father. <= 0 means DefaultThreshold.
	Threshold int
	// Workers is unused: nothing in the decomposition runs in parallel since
	// α/β became a composition over the incidence forest. It stays only while
	// bench/, which sets it, is frozen (ROADMAP item 2(iii)).
	Workers int
	// DisableGamma turns off total-redundancy elimination (every vertex
	// stays a root and γ ≡ 0); used by the ablation benchmarks.
	DisableGamma bool
	// Timings, when non-nil, receives the phase durations (the "graph
	// partition" and "counting α/β" slices of the paper's Figure 8).
	Timings *Timings
}

// Timings records how long the two preprocessing phases took. They are
// adjacent intervals that tile the call: Partition runs from Decompose's
// first instruction on a non-empty graph to the last finished sub-graph —
// FINDBCC, the block merge and buildSubgraphs with its γ fold, layout and
// swept rows — and AlphaBeta from there to the return, so the two sum to the
// call's wall clock as a caller times it (bench's decompose.total_s).
type Timings struct {
	Partition time.Duration
	AlphaBeta time.Duration
}

// Subgraph is one sub-graph SGi(V, E, A) of the decomposition, stored as a
// local CSR over local vertex ids [0, len(Verts)).
type Subgraph struct {
	ID int
	// Verts maps local id -> global id: the swept vertices, ascending unless
	// Relabelled, then the folded ones, ascending. Boundary articulation
	// points appear in every sub-graph they connect (paper §3.1 property 4).
	Verts []graph.V
	// Local CSR over the swept graph's out-arcs (see Out); wts is parallel to
	// adj when the source graph is weighted (nil otherwise).
	offs []int64
	adj  []int32
	wts  []float64
	// foldedInto[l] is the local id of the neighbour a γ-folded vertex l was
	// folded into, -1 for every vertex still in the swept graph.
	foldedInto []int32

	// IsArt[l] reports whether local vertex l is a boundary articulation
	// point of this sub-graph (a member of A_sgi).
	IsArt []bool
	// Arts lists the local ids of boundary articulation points, in global-id
	// order.
	Arts []int32
	// Alpha[l] = α_SGi(v) for boundary APs, 0 otherwise.
	Alpha []float64
	// Beta[l] = β_SGi(v) for boundary APs, 0 otherwise.
	Beta []float64
	// Gamma[l] = γ_SGi(v): how many removed neighbours derive their DAG
	// from v.
	Gamma []int32
	// Roots lists the local ids in R_sgi (BFS roots after total-redundancy
	// removal) — exactly the vertices of the swept graph, local ids
	// [0, len(Roots)), so len(Roots) and NumArcs are the size of one sweep and
	// of its per-vertex arrays; NumVerts stays the size of the id space. The
	// list is in global-id order, so a prefix or a range of it names the same
	// vertices whatever order the ids are in (0…len(Roots)−1 without a hub).
	Roots []int32

	directed   bool // whether the parent graph is directed
	relabelled bool // swept vertices in hubOrder's order, not in global-id order

	// Lazy transpose CSR for bottom-up sweeps; built by EnsureIn. For
	// undirected parents the arc set is symmetric, so the in-CSR aliases the
	// out-CSR instead of being materialized.
	inOnce sync.Once
	inOffs []int64
	inAdj  []int32
}

// NumVerts returns the number of local vertices.
func (s *Subgraph) NumVerts() int { return len(s.Verts) }

// NumArcs returns the number of swept arcs: the local out-arcs of the
// sub-graph without its γ-folded vertices.
func (s *Subgraph) NumArcs() int64 { return s.offs[len(s.Verts)] }

// Out returns the out-neighbors of local vertex l in the swept graph: the
// sub-graph without its γ-folded vertices. A folded vertex keeps its local id,
// past len(Roots), but has an empty row and occurs in no other row; what it would have added to
// a sweep is known in closed form (Gamma, DESIGN.md §1), so no kernel needs to
// visit it.
func (s *Subgraph) Out(l int32) []int32 { return s.adj[s.offs[l]:s.offs[l+1]] }

// FoldedInto returns the local id of the neighbour a γ-folded vertex l was
// folded into, the vertex whose DAG l's derives from; -1 when l is swept
// (l < len(Roots)).
func (s *Subgraph) FoldedInto(l int32) int32 { return s.foldedInto[l] }

// OutWeights returns the weights parallel to Out(l); nil for unweighted
// decompositions.
func (s *Subgraph) OutWeights(l int32) []float64 {
	if s.wts == nil {
		return nil
	}
	return s.wts[s.offs[l]:s.offs[l+1]]
}

// Relabelled reports whether the swept vertices' local ids are in the order
// hubOrder chooses for a swept graph with a hub — hubs, then breadth-first —
// rather than in global-id order. The folded vertices come last either way.
func (s *Subgraph) Relabelled() bool { return s.relabelled }

// EnsureIn builds what a bottom-up sweep level reads, if it is not present
// yet: the in-arc (transpose) CSR, so that In can be called. For undirected
// parents the out-CSR is already symmetric and is aliased instead of copied.
// Safe for concurrent callers.
func (s *Subgraph) EnsureIn() {
	s.inOnce.Do(func() {
		if !s.directed {
			s.inOffs, s.inAdj = s.offs, s.adj
			return
		}
		nl := len(s.Verts)
		offs := make([]int64, nl+1)
		for _, v := range s.adj {
			offs[v+1]++
		}
		for i := 0; i < nl; i++ {
			offs[i+1] += offs[i]
		}
		adj := make([]int32, len(s.adj))
		cur := make([]int64, nl)
		for u := int32(0); int(u) < nl; u++ {
			for _, v := range s.Out(u) {
				adj[offs[v]+cur[v]] = u
				cur[v]++
			}
		}
		s.inOffs, s.inAdj = offs, adj
	})
}

// In returns the in-neighbors of local vertex l in the swept graph (see Out).
// EnsureIn must have been called first.
func (s *Subgraph) In(l int32) []int32 { return s.inAdj[s.inOffs[l]:s.inOffs[l+1]] }

// SweepEqual reports whether s and o are the same input to a sweep: the same
// vertices under the same local ids, swept rows and weights, boundary APs with
// the same α and β, the same γ and the same roots. A sweep reads nothing else
// of a sub-graph, and Decompose builds all of it canonically — the local ids
// in an order that is a function of the sub-graph's vertices and arcs alone
// (global-id order, or hubOrder's with its ties by input id), every row ascending
// — so the same sub-graph in two decompositions is equal field by field and
// has bit-identical contributions to BC; internal/core.Incremental reuses one
// epoch's for the next on that ground.
func (s *Subgraph) SweepEqual(o *Subgraph) bool {
	return s.directed == o.directed &&
		slices.Equal(s.Verts, o.Verts) &&
		slices.Equal(s.offs, o.offs) &&
		slices.Equal(s.adj, o.adj) &&
		slices.Equal(s.wts, o.wts) &&
		slices.Equal(s.Arts, o.Arts) &&
		slices.Equal(s.Alpha, o.Alpha) &&
		slices.Equal(s.Beta, o.Beta) &&
		slices.Equal(s.Gamma, o.Gamma) &&
		slices.Equal(s.Roots, o.Roots)
}

// Decomposition is the result of Decompose.
type Decomposition struct {
	G         *graph.Graph
	Subgraphs []*Subgraph
	// TopIndex is the index of the largest sub-graph (paper's top sub-graph,
	// Table 4) in Subgraphs, or -1 if there are none.
	TopIndex int
	// NumArticulation is the number of distinct boundary articulation points.
	NumArticulation int
	// Threshold is the block-merge threshold Decompose applied, after
	// defaulting.
	Threshold int

	// forest is the sub-graph/AP incidence forest the α/β composition walks.
	forest *forest
	// member[v] is v's home sub-graph, isolated, or apMember(a) for v a
	// boundary AP, node a of forest (buildSubgraphs' pass 1).
	member []int32
}

// isolated marks a vertex in no block in Decomposition.member; AP node a is
// stored below it as apMember(a), and apMember is its own inverse.
const isolated = -1

func apMember(a int32) int32 { return -2 - a }

// SubgraphsOf returns the indices in Subgraphs of the sub-graphs holding v, in
// no set order: none if v is isolated, one if its blocks all fell into one
// sub-graph, else each one v joins as a boundary articulation point (paper
// §3.1 property 4). The slice is read-only and capped; it allocates nothing.
func (d *Decomposition) SubgraphsOf(v graph.V) []int32 {
	switch m := d.member[v]; {
	case m >= 0:
		return d.member[v : v+1 : v+1] // the home's index
	case m == isolated:
		return nil
	default:
		f, a := d.forest, apMember(m)
		lo, hi := f.apOff[a], f.apOff[a+1]
		return f.apSG[lo:hi:hi]
	}
}

// Decompose runs the full partition pipeline: FINDBCC, block-tree DFS with
// threshold merging, sub-graph construction with γ/R, and the α/β composition
// (alphabeta.go), which reads the folded sub-graphs: the leaves enter it as γ
// weights.
func Decompose(g *graph.Graph, opt Options) (*Decomposition, error) {
	if opt.Threshold <= 0 {
		opt.Threshold = DefaultThreshold
	}
	if g.NumVertices() == 0 {
		return &Decomposition{G: g, TopIndex: -1, Threshold: opt.Threshold, forest: new(forest)}, nil
	}
	start := time.Now()
	res := bcc.Find(g)
	blockGroup, numGroups := mergeBlocks(g, res, opt.Threshold)
	d := &Decomposition{G: g, TopIndex: -1, Threshold: opt.Threshold}
	buildSubgraphs(d, g, res, blockGroup, numGroups, opt.DisableGamma)
	built := time.Now()
	d.composeAlphaBeta()
	for i, sg := range d.Subgraphs {
		if d.TopIndex < 0 || sg.NumVerts() > d.Subgraphs[d.TopIndex].NumVerts() {
			d.TopIndex = i
		}
	}
	if opt.Timings != nil {
		opt.Timings.Partition = built.Sub(start)
		opt.Timings.AlphaBeta = time.Since(built)
	}
	return d, nil
}

// mergeBlocks contracts the block-cut tree per Algorithm 1: a DFS from each
// component's largest block, merging a popped block into its father when it
// is small (or has <= 2 vertices and the father is the top block). It returns
// for each block the group (future sub-graph) id it belongs to, and the
// number of groups.
func mergeBlocks(g *graph.Graph, res *bcc.Result, threshold int) (blockGroup []int32, numGroups int) {
	nb := res.NumBlocks()
	// Union of merged blocks, tracked with a union-find onto the surviving
	// parent block; sizes track deduplicated vertex counts (two blocks share
	// exactly one vertex, the connecting articulation point).
	parent := make([]int32, nb)
	size := make([]int64, nb)
	for b := 0; b < nb; b++ {
		parent[b] = int32(b)
		size[b] = int64(len(res.Block(int32(b))))
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	visited := make([]bool, nb)
	// apOwner[v] is the first block whose frame scanned vertex v. A later
	// block skips vertices it does not own, so all blocks hanging off one
	// articulation point become children of the owning block — this walks
	// the true block-cut tree instead of the block clique around each AP
	// (otherwise siblings chain under each other and the "father is the top
	// block" merge rule of Algorithm 1 never fires).
	apOwner := slices.Repeat([]int32{-1}, g.NumVertices())
	type frame struct {
		block  int32
		father int32 // block id we were discovered from, -1 at root
		ai, bi int   // iteration state over block vertices / their blocks
	}
	// Component roots: largest block first within each component; iterate
	// blocks in decreasing size order so each component's DFS starts at its
	// maximal block (the paper's topBCC).
	order := make([]int32, nb)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if la, lb := len(res.Block(a)), len(res.Block(b)); la != lb {
			return la > lb
		}
		return a < b
	})

	var stack []frame
	for _, top := range order {
		if visited[top] {
			continue
		}
		visited[top] = true
		stack = append(stack[:0], frame{block: top, father: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			verts := res.Block(f.block)
			for f.ai < len(verts) {
				v := verts[f.ai]
				if apOwner[v] == -1 {
					apOwner[v] = f.block
				} else if apOwner[v] != f.block {
					// Owned by an ancestor: its other blocks are our
					// siblings, discovered by the owner, not by us.
					f.ai++
					f.bi = 0
					continue
				}
				blocks := res.Blocks(v)
				for f.bi < len(blocks) {
					nxt := blocks[f.bi]
					f.bi++
					if !visited[nxt] {
						visited[nxt] = true
						stack = append(stack, frame{block: nxt, father: f.block})
						advanced = true
						break
					}
				}
				if advanced {
					break
				}
				f.ai++
				f.bi = 0
			}
			if advanced {
				continue
			}
			// Post-order: decide whether this (possibly already merged-into)
			// group joins its father's group.
			cur := find(f.block)
			stack = stack[:len(stack)-1]
			if f.father < 0 {
				continue
			}
			fat := find(f.father)
			topGroup := find(top)
			mergeIt := false
			if fat != topGroup && size[cur] < int64(threshold) {
				mergeIt = true
			} else if fat == topGroup && size[cur] <= 2 {
				mergeIt = true
			}
			if mergeIt {
				// Child and father share exactly one articulation point.
				size[fat] += size[cur] - 1
				parent[cur] = fat
			}
		}
	}
	// Assign group ids to surviving roots, in order of each group's
	// lowest-numbered block.
	blockGroup = slices.Repeat([]int32{-1}, nb)
	for b := int32(0); int(b) < nb; b++ {
		r := find(b)
		if blockGroup[r] < 0 {
			blockGroup[r] = int32(numGroups)
			numGroups++
		}
		blockGroup[b] = blockGroup[r]
	}
	return blockGroup, numGroups
}
