package graphio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestGraphMLRoundTripUnweighted(t *testing.T) {
	g := gen.Caveman(3, 4, false)
	var buf bytes.Buffer
	if err := WriteGraphML(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, names, err := ReadGraphML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weighted() {
		t.Fatal("unweighted graph came back weighted")
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %v vs %v", g2, g)
	}
	// WriteGraphML names nodes n0..n11 in order, so ids map back directly.
	for i, name := range names {
		if name != "n"+strconv.Itoa(i) {
			t.Fatalf("names[%d] = %q", i, name)
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		a, b := g.Out(int32(u)), g2.Out(int32(u))
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestGraphMLRoundTripWeightedDirected(t *testing.T) {
	g := gen.WithRandomWeights(gen.ErdosRenyi(40, 120, true, 3), 7, 4)
	var buf bytes.Buffer
	if err := WriteGraphML(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadGraphML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() || !g2.Directed() {
		t.Fatalf("lost attributes: %v", g2)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		aw, bw := g.OutWeights(u), g2.OutWeights(u)
		for i := range aw {
			if aw[i] != bw[i] {
				t.Fatalf("weight mismatch at %d[%d]", u, i)
			}
		}
	}
}

func TestGraphMLErrors(t *testing.T) {
	if _, _, err := ReadGraphML(strings.NewReader("not xml at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := `<?xml version="1.0"?><graphml>
<key id="d0" for="edge" attr.name="weight" attr.type="double"/>
<graph edgedefault="undirected">
<node id="a"/><node id="b"/>
<edge source="a" target="b"><data key="d0">-3</data></edge>
</graph></graphml>`
	if _, _, err := ReadGraphML(strings.NewReader(bad)); err == nil {
		t.Fatal("negative weight accepted")
	}
	bad2 := strings.Replace(bad, "-3", "zzz", 1)
	if _, _, err := ReadGraphML(strings.NewReader(bad2)); err == nil {
		t.Fatal("non-numeric weight accepted")
	}
}

func TestGraphMLRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		in := `<?xml version="1.0"?><graphml>
<key id="d0" for="edge" attr.name="weight" attr.type="double"/>
<graph edgedefault="undirected">
<node id="a"/><node id="b"/>
<edge source="a" target="b"><data key="d0">` + w + `</data></edge>
</graph></graphml>`
		if _, _, err := ReadGraphML(strings.NewReader(in)); err == nil {
			t.Fatalf("weight %s accepted", w)
		}
	}
}

func TestGraphMLForeignIDs(t *testing.T) {
	in := `<?xml version="1.0"?><graphml><graph edgedefault="directed">
<node id="alice"/><node id="bob"/><node id="carol"/>
<edge source="alice" target="bob"/>
<edge source="bob" target="carol"/>
</graph></graphml>`
	g, names, err := ReadGraphML(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || !g.Directed() || g.NumEdges() != 2 {
		t.Fatalf("shape: %v", g)
	}
	if names[0] != "alice" || names[2] != "carol" {
		t.Fatalf("names = %v", names)
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 2) {
		t.Fatal("arcs wrong")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Caveman(3, 4, false),
		gen.WithRandomWeights(gen.BarabasiAlbert(30, 2, 1), 5, 2),
		gen.ErdosRenyi(25, 60, true, 3),
	} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() ||
			g2.Directed() != g.Directed() || g2.Weighted() != g.Weighted() {
			t.Fatalf("round trip changed shape: %v vs %v", g2, g)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		`{`,                               // bad json
		`{"nodes":[{"id":5}],"links":[]}`, // non-dense id
		`{"nodes":[{"id":0}],"links":[{"source":0,"target":3}]}`,                      // endpoint range
		`{"nodes":[{"id":0},{"id":1}],"links":[{"source":0,"target":1,"weight":-2}]}`, // bad weight
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}
