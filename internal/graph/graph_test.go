package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestUndirectedBasics(t *testing.T) {
	// 0-1, 1-2, 2-0 triangle plus pendant 3-2.
	g := NewFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 2}}, false)
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4", g.NumEdges())
	}
	if g.NumArcs() != 8 {
		t.Fatalf("arcs = %d, want 8", g.NumArcs())
	}
	if g.OutDegree(2) != 3 {
		t.Fatalf("deg(2) = %d, want 3", g.OutDegree(2))
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) || g.HasArc(0, 3) {
		t.Fatal("HasArc wrong")
	}
	out := g.Out(2)
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatal("adjacency not sorted strictly")
		}
	}
}

func TestSelfLoopsAndDuplicatesDropped(t *testing.T) {
	g := NewFromEdges(3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 2}}, false)
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (dedup + loop drop)", g.NumEdges())
	}
	gd := NewFromEdges(3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 2}}, true)
	// Directed: 0->1, 1->0, 1->2 remain.
	if gd.NumEdges() != 3 {
		t.Fatalf("directed m = %d, want 3", gd.NumEdges())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	mustPanic(t, func() { NewFromEdges(2, []Edge{{0, 2}}, false) })
	mustPanic(t, func() { NewFromEdges(2, []Edge{{-1, 0}}, true) })
	mustPanic(t, func() { NewFromEdges(-1, nil, true) })
}

func TestDirectedTranspose(t *testing.T) {
	g := NewFromEdges(4, []Edge{{0, 1}, {0, 2}, {2, 3}, {3, 0}}, true)
	g.EnsureTranspose()
	if got := g.In(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("In(0) = %v", got)
	}
	if got := g.In(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("In(1) = %v", got)
	}
	tr := g.Transpose()
	if !tr.HasArc(1, 0) || tr.HasArc(0, 1) {
		t.Fatal("transpose arcs wrong")
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatal("transpose edge count differs")
	}
	// Transpose of transpose has original arcs.
	trtr := tr.Transpose()
	if !trtr.HasArc(0, 1) || !trtr.HasArc(3, 0) {
		t.Fatal("double transpose lost arcs")
	}
}

func TestUndirectedView(t *testing.T) {
	g := NewFromEdges(3, []Edge{{0, 1}, {1, 2}}, true)
	u := g.Undirected()
	if u.Directed() {
		t.Fatal("Undirected returned directed graph")
	}
	if !u.HasArc(1, 0) || !u.HasArc(2, 1) {
		t.Fatal("symmetrization missing arcs")
	}
	// Already-undirected graphs return themselves.
	if u.Undirected() != u {
		t.Fatal("Undirected of undirected should be identity")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		var es []Edge
		for k := 0; k < 3*n; k++ {
			es = append(es, Edge{V(r.Intn(n)), V(r.Intn(n))})
		}
		directed := trial%2 == 0
		g := NewFromEdges(n, es, directed)
		g2 := NewFromEdges(n, g.Edges(), directed)
		if g.NumEdges() != g2.NumEdges() {
			t.Fatalf("round trip edge count %d != %d", g.NumEdges(), g2.NumEdges())
		}
		for u := 0; u < n; u++ {
			a, b := g.Out(V(u)), g2.Out(V(u))
			if len(a) != len(b) {
				t.Fatalf("deg mismatch at %d", u)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("adjacency mismatch at %d", u)
				}
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; 5 isolated.
	g := NewFromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}}, false)
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("component {3,4} wrong")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated vertex merged")
	}
}

func TestWeakComponentsDirected(t *testing.T) {
	// 0->1<-2 is weakly connected even though not strongly.
	g := NewFromEdges(3, []Edge{{0, 1}, {2, 1}}, true)
	_, count := ConnectedComponents(g)
	if count != 1 {
		t.Fatalf("weak components = %d, want 1", count)
	}
}

func TestLargestComponent(t *testing.T) {
	g := NewFromEdges(7, []Edge{{0, 1}, {1, 2}, {2, 3}, {4, 5}}, false)
	sub, ids := LargestComponent(g)
	if sub.NumVertices() != 4 {
		t.Fatalf("largest component size %d, want 4", sub.NumVertices())
	}
	if len(ids) != 4 {
		t.Fatalf("ids len %d", len(ids))
	}
	for i, old := range ids {
		if int(old) != i { // 0..3 keep their ids here
			t.Fatalf("ids[%d] = %d", i, old)
		}
	}
}

func TestInduced(t *testing.T) {
	g := NewFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, false)
	sub, oldToNew := Induced(g, []V{1, 2, 3})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	if oldToNew[0] != -1 || oldToNew[1] != 0 || oldToNew[3] != 2 {
		t.Fatalf("oldToNew = %v", oldToNew)
	}
	if !sub.HasArc(0, 1) || !sub.HasArc(1, 2) || sub.HasArc(0, 2) {
		t.Fatal("induced adjacency wrong")
	}
}

func TestStatsUndirected(t *testing.T) {
	// star: center 0 with 4 leaves
	g := NewFromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, false)
	st := Stats(g)
	if st.Degree1 != 4 || st.MaxOut != 4 || st.MinOut != 1 || st.Isolated != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanOut != 8.0/5.0 {
		t.Fatalf("mean = %f", st.MeanOut)
	}
}

func TestStatsDirectedSources(t *testing.T) {
	// 0->1, 2->1: vertices 0 and 2 are total-redundancy candidates.
	g := NewFromEdges(4, []Edge{{0, 1}, {2, 1}}, true)
	st := Stats(g)
	if st.Sources != 2 {
		t.Fatalf("Sources = %d, want 2", st.Sources)
	}
	if st.Isolated != 1 {
		t.Fatalf("Isolated = %d, want 1", st.Isolated)
	}
}

// Property: arc count of an undirected graph is always even and every arc has
// its reverse.
func TestQuickUndirectedSymmetry(t *testing.T) {
	f := func(raw []uint16) bool {
		n := 20
		var es []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			es = append(es, Edge{V(raw[i] % uint16(n)), V(raw[i+1] % uint16(n))})
		}
		g := NewFromEdges(n, es, false)
		if g.NumArcs()%2 != 0 {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Out(V(u)) {
				if !g.HasArc(v, V(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewFromEdges(0, nil, false)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	_, count := ConnectedComponents(g)
	if count != 0 {
		t.Fatalf("components of empty graph = %d", count)
	}
	st := Stats(g)
	if st.MinOut != 0 {
		t.Fatalf("stats of empty graph: %+v", st)
	}
}

func TestStringer(t *testing.T) {
	g := NewFromEdges(2, []Edge{{0, 1}}, true)
	if got := g.String(); got != "graph{directed, n=2, m=1}" {
		t.Fatalf("String = %q", got)
	}
}
