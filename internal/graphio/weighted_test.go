package graphio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	g := gen.WithRandomWeights(gen.BarabasiAlbert(60, 2, 1), 9, 2)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadEdgeList(&buf, false, true)
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
	g, _, err := ReadEdgeList(strings.NewReader(in), true, true)
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
		if _, _, err := ReadEdgeList(strings.NewReader(in), false, true); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

// badWeights is what checkWeight must stop at every reader: Dijkstra needs
// positive finite weights, and ParseFloat hands back ±Inf and NaN without an
// error.
var badWeights = []string{"0", "-2", "NaN", "+Inf", "Inf", "-Inf", "infinity"}

func TestWeightedEdgeListRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		if _, _, err := ReadEdgeList(strings.NewReader("0 1 "+w+"\n"), false, true); err == nil {
			t.Fatalf("weight %s accepted", w)
		}
	}
}

func TestDIMACSWeightedRejectsBadWeights(t *testing.T) {
	for _, w := range badWeights {
		if _, err := ReadDIMACS(strings.NewReader("p sp 2 1\na 1 2 "+w+"\n"), false, true); err == nil {
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
	g, err := ReadDIMACS(strings.NewReader(in), false, true)
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
		if _, err := ReadDIMACS(strings.NewReader(in), false, true); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

// TestSaveLoadKeepsWeights: each format that can carry weights carries them
// through SaveFile → Load, and an unweighted graph comes back unweighted.
// GraphML and JSON keep the CSR as it was; an edge list renames vertices in
// first-appearance order, and Load's ids map them back.
func TestSaveLoadKeepsWeights(t *testing.T) {
	dir := t.TempDir()
	base := gen.BarabasiAlbert(60, 2, 1)
	for _, name := range []string{"g.txt", "g.graphml", "g.json"} {
		for _, g := range []*graph.Graph{base, gen.WithRandomWeights(base, 9, 2)} {
			path := filepath.Join(dir, name)
			if err := SaveFile(path, "", g); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g2, ids, err := Load(path, "", false, g.Weighted())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g2.Weighted() != g.Weighted() || g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
				t.Fatalf("%s: %v came back as %v", name, g, g2)
			}
			if (ids == nil) != (name != "g.txt") {
				t.Fatalf("%s: ids %v, want them for edge lists only", name, ids)
			}
			if ids == nil && !sameCSR(g, g2) {
				t.Fatalf("%s: CSR changed", name)
			}
			orig := func(v int32) int32 {
				if ids == nil {
					return v
				}
				return int32(ids[v])
			}
			for u := int32(0); int(u) < g2.NumVertices(); u++ {
				gu := orig(u)
				for i, v := range g2.Out(u) {
					j := slices.Index(g.Out(gu), orig(v))
					if j < 0 {
						t.Fatalf("%s: arc %d->%d not in the original", name, gu, orig(v))
					}
					if g.Weighted() && g2.OutWeights(u)[i] != g.OutWeights(gu)[j] {
						t.Fatalf("%s: arc %d->%d weight %v, want %v", name, gu, orig(v), g2.OutWeights(u)[i], g.OutWeights(gu)[j])
					}
				}
			}
		}
	}
}

// TestBinaryRefusesWeights: the binary format has no weight array, so
// weights are refused both ways, with ErrNoWeights, instead of dropped.
func TestBinaryRefusesWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveFile(path, "", gen.WithRandomWeights(gen.Path(4), 9, 2)); !errors.Is(err, ErrNoWeights) {
		t.Fatalf("saving a weighted graph as .bin: got %v, want ErrNoWeights", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused save left %s behind (%v)", path, err)
	}
	if err := SaveFile(path, "", gen.Path(4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path, "", false, true); !errors.Is(err, ErrNoWeights) {
		t.Fatalf("loading .bin with weights: got %v, want ErrNoWeights", err)
	}
	if _, _, err := Load(path, "", false, false); err != nil {
		t.Fatal(err)
	}
}
