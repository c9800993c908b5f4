package bfs

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestDistancesPath(t *testing.T) {
	g := gen.Path(6)
	d := Distances(g, 0)
	for i := 0; i < 6; i++ {
		if d[i] != int32(i) {
			t.Fatalf("d[%d] = %d, want %d", i, d[i], i)
		}
	}
	d2 := Distances(g, 3)
	want := []int32{3, 2, 1, 0, 1, 2}
	for i := range want {
		if d2[i] != want[i] {
			t.Fatalf("d2[%d] = %d, want %d", i, d2[i], want[i])
		}
	}
}

func TestDistancesDirectedUnreachable(t *testing.T) {
	// 0->1->2, 3 isolated; nothing reaches 0.
	g := graph.NewFromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, true)
	d := Distances(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 || d[3] != Unreached {
		t.Fatalf("d = %v", d)
	}
	d1 := Distances(g, 2)
	if d1[0] != Unreached || d1[1] != Unreached || d1[2] != 0 {
		t.Fatalf("d1 = %v", d1)
	}
}

func TestDistancesBlocked(t *testing.T) {
	// Path 0-1-2-3-4; blocking 2 cuts off 3,4.
	g := gen.Path(5)
	d := DistancesBlocked(g, 0, func(v graph.V) bool { return v == 2 })
	if d[0] != 0 || d[1] != 1 || d[2] != Unreached || d[3] != Unreached || d[4] != Unreached {
		t.Fatalf("d = %v", d)
	}
	// Blocking the source itself must not prevent the search from starting.
	d2 := DistancesBlocked(g, 2, func(v graph.V) bool { return v == 2 })
	if d2[2] != 0 || d2[1] != 1 || d2[3] != 1 || d2[0] != 2 {
		t.Fatalf("d2 = %v", d2)
	}
}

func TestReachableCounts(t *testing.T) {
	g := gen.Path(5)
	if c := ReachableCount(g, 0, nil); c != 5 {
		t.Fatalf("reach = %d", c)
	}
	if c := ReachableCount(g, 0, func(v graph.V) bool { return v == 3 }); c != 3 {
		t.Fatalf("blocked reach = %d, want 3 (0,1,2)", c)
	}
	gd := graph.NewFromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 2}}, true)
	if c := ReachableCount(gd, 0, nil); c != 3 {
		t.Fatalf("directed reach = %d, want 3", c)
	}
	if c := ReverseReachableCount(gd, 2, nil); c != 4 {
		t.Fatalf("reverse reach of 2 = %d, want 4 (0,1,3,2)", c)
	}
	if c := ReverseReachableCount(gd, 0, nil); c != 1 {
		t.Fatalf("reverse reach of 0 = %d, want 1", c)
	}
	// Undirected: reverse == forward.
	if a, b := ReachableCount(g, 1, nil), ReverseReachableCount(g, 1, nil); a != b {
		t.Fatalf("undirected reverse %d != forward %d", b, a)
	}
}

// Property: on random graphs, distances obey the edge relaxation property
// |d(u)-d(v)| <= 1 on undirected edges.
func TestQuickBFSAgree(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(120, 360, false, seed)
		want := Distances(g, 0)
		for _, e := range g.Edges() {
			du, dv := want[e.From], want[e.To]
			if du == Unreached != (dv == Unreached) {
				return false
			}
			if du != Unreached && dv != Unreached && du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.NewFromEdges(1, nil, false)
	d := Distances(g, 0)
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("d = %v", d)
	}
}
