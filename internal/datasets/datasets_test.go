package datasets

import (
	"testing"

	"repro/internal/bcc"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/graph"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d datasets, want 12 (Table 1)", len(all))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if d.Name == "" || d.Build == nil || d.BaseN < 64 {
			t.Fatalf("malformed dataset %+v", d)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("wiki-talk")
	if err != nil || d.Name != "wiki-talk" {
		t.Fatalf("ByName: %v %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
	if len(Names()) != 12 {
		t.Fatal("Names wrong length")
	}
}

func TestBuildsAreSane(t *testing.T) {
	for _, d := range All() {
		g := d.Build(0.25)
		if g.Directed() != d.Directed {
			t.Fatalf("%s: directedness mismatch", d.Name)
		}
		if g.NumVertices() < 64 {
			t.Fatalf("%s: too few vertices at scale 0.25", d.Name)
		}
		if _, count := graph.ConnectedComponents(g); count != 1 {
			t.Fatalf("%s: not (weakly) connected: %d components", d.Name, count)
		}
		// Deterministic: same scale twice gives identical sizes.
		g2 := d.Build(0.25)
		if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("%s: nondeterministic build", d.Name)
		}
	}
}

func TestScaleGrows(t *testing.T) {
	d, _ := ByName("email-enron")
	small, big := d.Build(0.25), d.Build(1)
	if big.NumVertices() <= small.NumVertices() {
		t.Fatal("scale did not grow the graph")
	}
}

// Every stand-in must actually have the articulation structure APGRE
// exploits: a nontrivial decomposition with redundancy to eliminate
// (except controls). This pins the Figure 7 / Table 4 shape at small scale.
func TestStandInsHaveRedundancy(t *testing.T) {
	for _, d := range All() {
		g := d.Build(0.25)
		dec, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(dec.Subgraphs) < 2 {
			t.Fatalf("%s: decomposes into %d subgraphs — no structure", d.Name, len(dec.Subgraphs))
		}
		rep := core.AnalyzeRedundancy(g, dec, 64, 1)
		if rep.Partial+rep.Total < 0.05 {
			t.Fatalf("%s: redundancy %.2f+%.2f too low — stand-in mistuned",
				d.Name, rep.Partial, rep.Total)
		}
		// Leafy datasets must show substantial total redundancy.
		switch d.Name {
		case "email-euall", "wiki-talk", "soc-douban":
			if rep.Total < 0.25 {
				t.Fatalf("%s: total redundancy %.2f, want >= 0.25", d.Name, rep.Total)
			}
		}
	}
}

func TestHumanDisease(t *testing.T) {
	d, err := ByName("human-disease")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(0.05)
	if d.Name != "human-disease" || g.NumVertices() != 1419 {
		t.Fatalf("human disease stand-in wrong: %v %v", d, g)
	}
	aps, deg1 := bcc.CountArticulationPoints(g)
	if aps < 50 || deg1 < 100 {
		t.Fatalf("expected many APs/leaves (Figure 2), got %d/%d", aps, deg1)
	}
}
