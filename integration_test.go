package repro

// Integration tests: the full pipeline — dataset generation, decomposition,
// APGRE, baselines, analyzers — run end-to-end over every Table 1 stand-in
// at reduced scale, cross-checking exactness and the structural claims the
// experiments rely on.

import (
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/decompose"
)

func TestIntegrationAllDatasetsExact(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			g := ds.Build(0.1)
			want := brandes.Serial(g)
			got, err := core.Compute(g, core.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if math.Abs(want[v]-got[v]) > 1e-9*math.Max(1, math.Abs(want[v])) {
					t.Fatalf("APGRE differs from Brandes at vertex %d: %v vs %v",
						v, want[v], got[v])
				}
			}
		})
	}
}

func TestIntegrationBaselinesAgree(t *testing.T) {
	// One representative undirected and directed dataset, all baselines.
	for _, name := range []string{"com-youtube", "web-google"} {
		ds, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Build(0.08)
		want := brandes.Serial(g)
		check := func(label string, got []float64) {
			t.Helper()
			for v := range want {
				if math.Abs(want[v]-got[v]) > 1e-9*math.Max(1, math.Abs(want[v])) {
					t.Fatalf("%s/%s differs at %d", name, label, v)
				}
			}
		}
		for _, b := range brandes.Baselines {
			if b.Name == "async" && g.Directed() {
				continue
			}
			got, err := b.Run(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			check(b.Name, got)
		}
	}
}

// The experiments' qualitative claims must hold at bench scale: APGRE does
// strictly less traversal work than Brandes on every stand-in, and the
// decomposition is non-trivial everywhere.
func TestIntegrationWorkReduction(t *testing.T) {
	for _, ds := range datasets.All() {
		g := ds.Build(0.25)
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		var bd core.Breakdown
		if _, err := core.ComputeDecomposed(d, core.Options{Breakdown: &bd}); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		rep := core.AnalyzeRedundancy(g, d, 128, 1)
		if rep.Effective >= 1.0 {
			t.Errorf("%s: no work reduction (effective=%.2f)", ds.Name, rep.Effective)
		}
		if len(d.Subgraphs) < 2 {
			t.Errorf("%s: trivial decomposition", ds.Name)
		}
	}
}

// Road graphs must be APGRE's weakest case and leafy social graphs its
// strongest, mirroring the paper's Figure 6 ordering.
func TestIntegrationSpeedupOrdering(t *testing.T) {
	effective := func(name string) float64 {
		ds, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Build(0.25)
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return core.AnalyzeRedundancy(g, d, 128, 1).Effective
	}
	road := effective("usa-roadny")
	euall := effective("email-euall")
	if euall >= road {
		t.Fatalf("expected email-euall effective work (%.2f) < usa-roadny (%.2f)", euall, road)
	}
}
