package graph

import (
	"testing"
	"testing/quick"
)

func TestWeightedBasics(t *testing.T) {
	g := NewWeightedFromEdges(3, []WeightedEdge{
		{From: 0, To: 1, W: 2.5}, {From: 1, To: 2, W: 1},
	}, false)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	if g.NumEdges() != 2 || g.NumArcs() != 4 {
		t.Fatalf("m=%d arcs=%d", g.NumEdges(), g.NumArcs())
	}
	if w := g.OutWeights(0)[0]; w != 2.5 {
		t.Fatalf("w(0,1) = %v", w)
	}
	if w := g.OutWeights(1)[0]; w != 2.5 {
		t.Fatalf("w(1,0) = %v (undirected symmetry)", w)
	}
	ws := g.OutWeights(1)
	if len(ws) != 2 {
		t.Fatalf("OutWeights(1) = %v", ws)
	}
}

func TestWeightedParallelEdgesKeepMin(t *testing.T) {
	g := NewWeightedFromEdges(2, []WeightedEdge{
		{From: 0, To: 1, W: 5}, {From: 0, To: 1, W: 2}, {From: 0, To: 1, W: 9},
	}, true)
	if g.NumArcs() != 1 {
		t.Fatalf("arcs = %d, want 1", g.NumArcs())
	}
	if w := g.OutWeights(0)[0]; w != 2 {
		t.Fatalf("kept weight %v, want min 2", w)
	}
}

func TestWeightedValidation(t *testing.T) {
	mustPanic(t, func() { NewWeightedFromEdges(2, []WeightedEdge{{From: 0, To: 1, W: 0}}, false) })
	mustPanic(t, func() { NewWeightedFromEdges(2, []WeightedEdge{{From: 0, To: 1, W: -1}}, false) })
	mustPanic(t, func() { NewWeightedFromEdges(2, []WeightedEdge{{From: 0, To: 2, W: 1}}, false) })
	g := NewFromEdges(2, []Edge{{From: 0, To: 1}}, false)
	mustPanic(t, func() { g.OutWeights(0) })
	if es := g.WeightedEdges(); len(es) != 1 || es[0].W != 1 {
		t.Fatalf("unweighted edges must weigh 1: %v", es)
	}
}

func TestWeightedTranspose(t *testing.T) {
	g := NewWeightedFromEdges(3, []WeightedEdge{
		{From: 0, To: 1, W: 3}, {From: 2, To: 1, W: 7},
	}, true)
	tr := g.Transpose()
	if !tr.Weighted() {
		t.Fatal("transpose lost weights")
	}
	if w := tr.OutWeights(1)[0]; w != 3 {
		t.Fatalf("transpose w(1->0) = %v, want 3", w)
	}
	if w := tr.OutWeights(1)[1]; w != 7 {
		t.Fatalf("transpose w(1->2) = %v, want 7", w)
	}
}

func TestWeightedEdgesRoundTrip(t *testing.T) {
	in := []WeightedEdge{{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 3}, {From: 0, To: 2, W: 4}}
	g := NewWeightedFromEdges(3, in, false)
	out := g.WeightedEdges()
	if len(out) != 3 {
		t.Fatalf("edges = %v", out)
	}
	g2 := NewWeightedFromEdges(3, out, false)
	for u := V(0); u < 3; u++ {
		a, b := g.OutWeights(u), g2.OutWeights(u)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("round trip changed weights")
			}
		}
	}
}

func TestUnitWeights(t *testing.T) {
	g := NewFromEdges(4, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}, true)
	w := g.UnitWeights()
	if !w.Weighted() || w.NumArcs() != g.NumArcs() {
		t.Fatal("UnitWeights wrong shape")
	}
	for u := V(0); int(u) < 4; u++ {
		for _, x := range w.OutWeights(u) {
			if x != 1 {
				t.Fatal("unit weight != 1")
			}
		}
	}
}

// Property: weighted construction preserves adjacency of the unweighted
// construction on the same edge list.
func TestQuickWeightedAdjacency(t *testing.T) {
	f := func(raw []uint16) bool {
		n := 15
		var we []WeightedEdge
		var ue []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := V(raw[i]%uint16(n)), V(raw[i+1]%uint16(n))
			we = append(we, WeightedEdge{From: u, To: v, W: 1 + float64(i%5)})
			ue = append(ue, Edge{From: u, To: v})
		}
		gw := NewWeightedFromEdges(n, we, false)
		gu := NewFromEdges(n, ue, false)
		if gw.NumArcs() != gu.NumArcs() {
			return false
		}
		for u := 0; u < n; u++ {
			a, b := gw.Out(V(u)), gu.Out(V(u))
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
