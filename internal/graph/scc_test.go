package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCDirectedChain(t *testing.T) {
	// 0->1->2: three singleton SCCs, reverse-topological labels.
	g := NewFromEdges(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, true)
	labels, count := StronglyConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Arc u->v across components implies labels[u] > labels[v].
	if !(labels[0] > labels[1] && labels[1] > labels[2]) {
		t.Fatalf("labels not reverse-topological: %v", labels)
	}
}

func TestSCCCycle(t *testing.T) {
	g := NewFromEdges(4, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}}, true)
	_, count := StronglyConnectedComponents(g)
	if count != 1 {
		t.Fatalf("cycle SCCs = %d, want 1", count)
	}
	if LargestSCCSize(g) != 4 {
		t.Fatal("largest SCC wrong")
	}
}

func TestSCCTwoCyclesBridged(t *testing.T) {
	// Cycle {0,1,2} -> cycle {3,4,5} via arc 2->3.
	g := NewFromEdges(6, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
		{From: 2, To: 3},
	}, true)
	labels, count := StronglyConnectedComponents(g)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first cycle split")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("second cycle split")
	}
	if labels[2] <= labels[3] {
		t.Fatalf("condensation order wrong: %v", labels)
	}
}

func TestSCCUndirected(t *testing.T) {
	// For undirected graphs SCCs equal connected components.
	g := NewFromEdges(5, []Edge{{From: 0, To: 1}, {From: 2, To: 3}}, false)
	_, scc := StronglyConnectedComponents(g)
	_, cc := ConnectedComponents(g)
	if scc != cc {
		t.Fatalf("undirected SCC count %d != CC count %d", scc, cc)
	}
}

// bruteSCC: u,v strongly connected iff v reachable from u and u from v.
func bruteSCCSame(g *Graph, u, v V) bool {
	reach := func(a, b V) bool {
		seen := make([]bool, g.NumVertices())
		stack := []V{a}
		seen[a] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == b {
				return true
			}
			for _, y := range g.Out(x) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return false
	}
	return reach(u, v) && reach(v, u)
}

func TestQuickSCCBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 18
		var edges []Edge
		for k := 0; k < 36; k++ {
			edges = append(edges, Edge{From: V(r.Intn(n)), To: V(r.Intn(n))})
		}
		g := NewFromEdges(n, edges, true)
		labels, _ := StronglyConnectedComponents(g)
		for u := V(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if (labels[u] == labels[v]) != bruteSCCSame(g, u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCDeep(t *testing.T) {
	// 50k-vertex directed path: iterative implementation must not overflow.
	n := 50000
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{From: V(i), To: V(i + 1)})
	}
	g := NewFromEdges(n, edges, true)
	_, count := StronglyConnectedComponents(g)
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

// TestSCCLabelOrderAndReuse checks what internal/decompose's mask propagation
// leans on: order is a permutation of the vertices grouped by increasing
// label, and one scratch labels a smaller graph after a larger one (stale
// index/low entries beyond the first graph's size included) like a fresh one.
func TestSCCLabelOrderAndReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s SCC
	for _, n := range []int{400, 30, 1, 0, 90} {
		var edges []Edge
		for k := 0; k < 2*n; k++ {
			edges = append(edges, Edge{From: V(r.Intn(n)), To: V(r.Intn(n))})
		}
		g := NewFromEdges(n, edges, true)
		labels, order := make([]int32, n), make([]V, n)
		count := s.Label(g.offs, g.adj, labels, order)
		want, wantCount := StronglyConnectedComponents(g)
		if count != wantCount {
			t.Fatalf("n=%d: %d components with a reused scratch, %d with a fresh one", n, count, wantCount)
		}
		seen := make([]bool, n)
		for i, v := range order {
			if labels[v] != want[v] {
				t.Fatalf("n=%d: vertex %d labelled %d, fresh scratch says %d", n, v, labels[v], want[v])
			}
			if seen[v] || i > 0 && labels[order[i-1]] > labels[v] {
				t.Fatalf("n=%d: order %v is not the vertices by increasing label %v", n, order, labels)
			}
			seen[v] = true
		}
	}
}
