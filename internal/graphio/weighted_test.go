package graphio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	g := gen.WithRandomWeights(gen.BarabasiAlbert(60, 2, 1), 9, 2)
	var buf bytes.Buffer
	if err := WriteWeightedEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadWeightedEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape wrong: %v", g2)
	}
	for u := 0; u < g2.NumVertices(); u++ {
		for i, v := range g2.Out(int32(u)) {
			gu, gv := int32(orig[u]), int32(orig[v])
			want := g.OutWeights(gu)[slices.Index(g.Out(gu), gv)]
			if got := g2.OutWeights(int32(u))[i]; got != want {
				t.Fatalf("arc %d->%d weight %v, want %v", gu, gv, got, want)
			}
		}
	}
}

func TestWeightedEdgeListDefaults(t *testing.T) {
	in := "0 1\n1 2 3.5\n"
	g, _, err := ReadWeightedEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if w := g.OutWeights(0)[0]; w != 1 {
		t.Fatalf("default weight = %v, want 1", w)
	}
	if w := g.OutWeights(1)[0]; w != 3.5 {
		t.Fatalf("weight = %v, want 3.5", w)
	}
}

func TestWeightedEdgeListErrors(t *testing.T) {
	cases := []string{
		"0 1 -2\n",  // negative weight
		"0 1 0\n",   // zero weight
		"0 1 abc\n", // bad weight
		"0\n",       // short line
		"-1 2 1\n",  // negative id
		"x 2 1\n",   // bad id
	}
	for _, in := range cases {
		if _, _, err := ReadWeightedEdgeList(strings.NewReader(in), false); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
	if err := WriteWeightedEdgeList(&bytes.Buffer{}, gen.Path(3)); err == nil {
		t.Fatal("expected error writing unweighted graph")
	}
}

// badWeights is what checkWeight must stop at every reader: Dijkstra needs
// positive finite weights, and ParseFloat hands back ±Inf and NaN without an
// error.
var badWeights = []string{"0", "-2", "NaN", "+Inf", "Inf", "-Inf", "infinity"}

func TestWeightedEdgeListRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		if _, _, err := ReadWeightedEdgeList(strings.NewReader("0 1 "+w+"\n"), false); err == nil {
			t.Fatalf("weight %s accepted", w)
		}
	}
}

func TestDIMACSWeightedRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		if _, err := ReadDIMACSWeighted(strings.NewReader("p sp 2 1\na 1 2 "+w+"\n"), false); err == nil {
			t.Fatalf("weight %s accepted", w)
		}
	}
}

func TestReadDIMACSWeighted(t *testing.T) {
	in := `c weighted road fragment
p sp 3 4
a 1 2 7
a 2 1 7
a 2 3 4
a 3 2 4
`
	g, err := ReadDIMACSWeighted(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.NumEdges() != 2 {
		t.Fatalf("shape: %v", g)
	}
	if w := g.OutWeights(0)[0]; w != 7 {
		t.Fatalf("w(0,1) = %v", w)
	}
	bad := []string{
		"p sp 2 1\na 1 2\n",   // missing weight
		"p sp 2 1\na 1 2 0\n", // zero weight
		"p sp 2 1\na 1 2 x\n", // bad weight
		"a 1 2 3\n",           // before problem line
		"c nothing\n",         // no problem line
	}
	for _, in := range bad {
		if _, err := ReadDIMACSWeighted(strings.NewReader(in), false); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}
