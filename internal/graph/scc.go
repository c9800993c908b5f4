package graph

// StronglyConnectedComponents labels the SCCs of a directed graph with an
// iterative Tarjan algorithm (recursion-free, like the biconnected
// decomposition, to survive path-shaped graphs). For undirected graphs SCCs
// coincide with connected components. Returns per-vertex component ids in
// reverse topological order of the condensation (an arc u->v between
// different components implies labels[u] > labels[v]) and the component
// count.
func StronglyConnectedComponents(g *Graph) (labels []int32, count int) {
	labels = make([]int32, g.n)
	var s SCC
	return labels, s.Label(g.offs, g.adj, labels, make([]V, g.n))
}

// SCC is the scratch of the Tarjan labelling. One value labels any number of
// graphs in a row (internal/decompose labels every sub-graph's local CSR) and
// allocates for the largest of them only.
type SCC struct {
	index, low []int32
	frames     []sccFrame
}

type sccFrame struct {
	v    V
	iter int32
}

// Reserve sizes the scratch for graphs of up to n vertices.
func (s *SCC) Reserve(n int) {
	if cap(s.index) < n {
		s.index = make([]int32, n)
		s.low = make([]int32, n)
		s.frames = make([]sccFrame, 0, n)
	}
}

// Label labels the strongly connected components of the CSR graph (offs, adj)
// over the vertices [0, len(offs)-1) and returns their number. labels[v]
// receives v's component, numbered in reverse topological order of the
// condensation as StronglyConnectedComponents describes, and order the
// vertices grouped by component in increasing label — so walking order
// backwards visits every component before the ones its arcs lead to. Both
// must have one slot per vertex.
func (s *SCC) Label(offs []int64, adj []V, labels []int32, order []V) (count int) {
	n := len(offs) - 1
	s.Reserve(n)
	index, low := s.index[:n], s.low[:n]
	for v := range index {
		index[v] = -1
		labels[v] = -1
	}
	// order doubles as Tarjan's vertex stack: the stack grows down from the
	// top, finished components are written up from the bottom, and the two
	// never meet because a vertex is in at most one of them. A vertex is on
	// the stack exactly while it is discovered and unlabelled.
	top, done := n, 0
	stack := s.frames[:0]
	var next int32
	discover := func(v V) {
		index[v], low[v] = next, next
		next++
		top--
		order[top] = v
		stack = append(stack, sccFrame{v: v})
	}
	for root := V(0); int(root) < n; root++ {
		if index[root] != -1 {
			continue
		}
		discover(root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			row := adj[offs[v]:offs[v+1]]
			if int(f.iter) < len(row) {
				w := row[f.iter]
				f.iter++
				if index[w] == -1 {
					discover(w)
				} else if labels[w] < 0 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				id := int32(count)
				count++
				for {
					w := order[top]
					top++
					labels[w] = id
					order[done] = w
					done++
					if w == v {
						break
					}
				}
			}
		}
	}
	s.frames = stack[:0]
	return count
}

// LargestSCCSize returns the vertex count of the biggest strongly connected
// component — the "core" directed BC sweeps actually traverse.
func LargestSCCSize(g *Graph) int {
	labels, count := StronglyConnectedComponents(g)
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}
