package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// undirected triangle 0-1-2 plus a pendant 3 hanging off 2, in CSR form.
func validCSR() (int, []int64, []V) {
	offs := []int64{0, 2, 4, 7, 8}
	adj := []V{1, 2, 0, 2, 0, 1, 3, 2}
	return 4, offs, adj
}

func TestNewFromCSRValid(t *testing.T) {
	n, offs, adj := validCSR()
	g, err := NewFromCSR(n, offs, adj, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumArcs() != 8 || g.NumEdges() != 4 {
		t.Fatalf("shape: %v", g)
	}
	if !g.HasArc(3, 2) || !g.HasArc(2, 3) || g.HasArc(0, 3) {
		t.Fatal("adjacency mismatch")
	}
	// Adoption is zero-copy: the returned graph serves rows out of the
	// caller's slab (this is what lets the mmap reader hand over a read-only
	// mapping).
	if &g.Out(0)[0] != &adj[0] {
		t.Fatal("NewFromCSR copied the adjacency")
	}
}

func TestNewFromCSRDirectedAsymmetry(t *testing.T) {
	// 0->1->2, no mirrors: fine when directed, rejected when undirected.
	offs := []int64{0, 1, 2, 2}
	adj := []V{1, 2}
	if _, err := NewFromCSR(3, offs, adj, true); err != nil {
		t.Fatalf("directed: %v", err)
	}
	if _, err := NewFromCSR(3, offs, adj, false); err == nil ||
		!strings.Contains(err.Error(), "mirror") {
		t.Fatalf("undirected missing mirror: got %v", err)
	}
}

func TestNewFromCSRRejects(t *testing.T) {
	cases := []struct {
		name string
		n    int
		offs []int64
		adj  []V
		want string
	}{
		{"negative n", -1, nil, nil, "negative"},
		{"offsets length", 2, []int64{0, 1}, []V{1}, "offsets length"},
		{"nonzero start", 2, []int64{1, 1, 2}, []V{0, 1}, "start at 0"},
		{"end mismatch", 2, []int64{0, 1, 3}, []V{1, 0}, "offsets end"},
		{"non-monotone", 3, []int64{0, 2, 1, 2}, []V{1, 2}, "non-monotone"},
		{"neighbor range", 2, []int64{0, 1, 2}, []V{1, 5}, "out of range"},
		{"self-loop", 2, []int64{0, 1, 2}, []V{1, 1}, "self-loop"},
		{"unsorted row", 3, []int64{0, 2, 2, 2}, []V{2, 1}, "strictly increasing"},
		{"duplicate", 3, []int64{0, 2, 2, 2}, []V{1, 1}, "strictly increasing"},
	}
	for _, tc := range cases {
		_, err := NewFromCSR(tc.n, tc.offs, tc.adj, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNewFromCSRUnsortedCanonicalizes(t *testing.T) {
	// Same triangle+pendant as validCSR but with scrambled rows, duplicate
	// arcs and self-loops mixed in. Canonicalization must reproduce exactly
	// what NewFromEdges builds for the same edge multiset.
	offs := []int64{0, 4, 6, 10, 12}
	adj := []V{2, 1, 1, 0, 2, 0, 3, 1, 0, 2, 2, 2}
	g := NewFromCSRUnsorted(4, offs, adj, false)

	want := NewFromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}, false)
	if g.NumVertices() != want.NumVertices() || g.NumArcs() != want.NumArcs() {
		t.Fatalf("shape %v != %v", g, want)
	}
	for u := 0; u < 4; u++ {
		got, exp := g.Out(V(u)), want.Out(V(u))
		if len(got) != len(exp) {
			t.Fatalf("vertex %d: row %v != %v", u, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("vertex %d: row %v != %v", u, got, exp)
			}
		}
	}
}

// TestEdgeListsCanonicalize: one canonicaliser builds every graph. A random
// edge set, listed shuffled with duplicates, reversed duplicates and
// self-loops mixed in, comes out of NewFromEdges — and its arcs, shuffled
// within their rows, out of NewFromCSRUnsorted — as the strictly ascending
// rows of the edge set itself, which NewFromCSR's validation accepts,
// directed and undirected.
func TestEdgeListsCanonicalize(t *testing.T) {
	const n = 60
	r := rand.New(rand.NewSource(5))
	for _, directed := range []bool{false, true} {
		rows := make([]map[V]bool, n)
		for u := range rows {
			rows[u] = map[V]bool{}
		}
		var edges []Edge
		for len(edges) < 400 {
			u, v := V(r.Intn(n)), V(r.Intn(n))
			edges = append(edges, Edge{u, v})
			switch r.Intn(4) {
			case 0:
				edges = append(edges, Edge{u, v})
			case 1:
				edges = append(edges, Edge{v, u}, Edge{u, u})
			}
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			if e.From != e.To {
				rows[e.From][e.To] = true
				if !directed {
					rows[e.To][e.From] = true
				}
			}
		}
		offs := make([]int64, n+1)
		var adj []V
		for u, row := range rows {
			for v := range row {
				adj = append(adj, v)
			}
			slices.Sort(adj[offs[u]:])
			offs[u+1] = int64(len(adj))
		}
		want, err := NewFromCSR(n, offs, adj, directed)
		if err != nil {
			t.Fatalf("directed=%v: the oracle's CSR is not canonical: %v", directed, err)
		}
		same := func(label string, g *Graph) {
			t.Helper()
			if !slices.Equal(g.offs, want.offs) || !slices.Equal(g.adj, want.adj) || g.Directed() != directed {
				t.Fatalf("directed=%v: %s differs from the edge set's canonical rows", directed, label)
			}
		}
		g := NewFromEdges(n, edges, directed)
		same("NewFromEdges", g)
		var raw []V
		rawOffs := make([]int64, n+1)
		for u := 0; u < n; u++ {
			raw = append(raw, g.Out(V(u))...)
			if g.OutDegree(V(u)) > 0 {
				raw = append(raw, g.Out(V(u))[0], V(u)) // a duplicate and a self-loop
			}
			row := raw[rawOffs[u]:]
			r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
			rawOffs[u+1] = int64(len(raw))
		}
		same("NewFromCSRUnsorted", NewFromCSRUnsorted(n, rawOffs, raw, directed))
	}
}

func TestNewFromCSRUnsortedPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("out of range", func() {
		NewFromCSRUnsorted(2, []int64{0, 1, 1}, []V{7}, true)
	})
	mustPanic("bad offsets", func() {
		NewFromCSRUnsorted(2, []int64{0, 2}, []V{1, 0}, true)
	})
}

// mirrorOracle is the mirror check NewFromCSR used before it moved to one
// cursor per row: look every arc's reverse up by binary search.
func mirrorOracle(rows [][]V) bool {
	for u, row := range rows {
		for _, v := range row {
			if _, ok := slices.BinarySearch(rows[v], V(u)); !ok {
				return false
			}
		}
	}
	return true
}

func flattenRows(rows [][]V) ([]int64, []V) {
	offs := make([]int64, len(rows)+1)
	var adj []V
	for u, row := range rows {
		adj = append(adj, row...)
		offs[u+1] = int64(len(adj))
	}
	return offs, adj
}

// insertSorted returns a copy of row with v added in order.
func insertSorted(row []V, v V) []V {
	i, _ := slices.BinarySearch(row, v)
	return slices.Insert(slices.Clone(row), i, v)
}

// TestMirrorCheckMatchesOracle runs the cursor mirror check against the
// binary-search formulation on random symmetric CSRs and on one-arc damage to
// them: an arc removed, an arc added, and a row whose tail runs past the end
// of its mirror's row (the cursor is already at that row's end). Undirected
// adoption must reject exactly what the oracle rejects, naming the mirror;
// directed adoption accepts all of them, the rows being still sorted.
func TestMirrorCheckMatchesOracle(t *testing.T) {
	check := func(label string, rows [][]V) {
		t.Helper()
		offs, adj := flattenRows(rows)
		want := mirrorOracle(rows)
		_, err := NewFromCSR(len(rows), offs, adj, false)
		if (err == nil) != want {
			t.Fatalf("%s: oracle says symmetric=%v, NewFromCSR returned %v", label, want, err)
		}
		if err != nil && !strings.Contains(err.Error(), "mirror") {
			t.Fatalf("%s: error %q does not name the mirror defect", label, err)
		}
		if _, err := NewFromCSR(len(rows), offs, adj, true); err != nil {
			t.Fatalf("%s: directed adoption rejected sorted rows: %v", label, err)
		}
	}
	rejected := 0
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(40)
		var edges []Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, Edge{V(r.Intn(n - 1)), V(r.Intn(n - 1))}) // vertex n-1 stays isolated
		}
		g := NewFromEdges(n, edges, false)
		pristine := func() [][]V {
			rows := make([][]V, n)
			for u := range rows {
				rows[u] = slices.Clone(g.Out(V(u)))
			}
			return rows
		}
		check("symmetric", pristine())

		// One arc removed, its mirror kept.
		rows := pristine()
		for u := r.Intn(n); ; u = (u + 1) % n {
			if len(rows[u]) > 0 {
				i := r.Intn(len(rows[u]))
				rows[u] = slices.Delete(rows[u], i, i+1)
				break
			}
		}
		check("arc removed", rows)

		// One arc added between non-adjacent vertices.
		rows = pristine()
		for {
			u, v := V(r.Intn(n)), V(r.Intn(n))
			if u != v && !g.HasArc(u, v) {
				rows[u] = insertSorted(rows[u], v)
				break
			}
		}
		check("arc added", rows)

		// Tail extended past the mirror row's end: the highest vertex with
		// a non-empty row points at the isolated vertex n-1 (empty row) and,
		// when it has a non-neighbour below it with a non-empty row, at
		// that one too — every entry of whose row is a lower id.
		rows = pristine()
		top := n - 2
		for len(rows[top]) == 0 {
			top--
		}
		rows[top] = append(rows[top], V(n-1))
		check("tail onto an empty row", rows)
		rows = pristine()
		for v := 0; v < top; v++ {
			if len(rows[v]) > 0 && !g.HasArc(V(top), V(v)) {
				rows[top] = insertSorted(rows[top], V(v))
				check("tail past a consumed row", rows)
				rejected++
				break
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no seed produced the consumed-row case")
	}
}
