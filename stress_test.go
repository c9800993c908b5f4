package repro

// Large-scale stress tests, skipped under -short: they exercise allocation
// behaviour, int32/int64 boundaries and work-unit scheduling on graphs an
// order of magnitude beyond the unit-test sizes.

import (
	"math"
	"testing"

	"repro/internal/brandes"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/gen"
)

func TestStressLargeSocial(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := gen.SocialLike(gen.SocialParams{N: 20000, AvgDeg: 6, Communities: 120,
		TopShare: 0.4, LeafFrac: 0.35, Seed: 91})
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subgraphs) < 10 {
		t.Fatalf("weak decomposition: %d subgraphs", len(d.Subgraphs))
	}
	// APGRE on 20k vertices; verify a sampled subset of scores against
	// per-source dependency sweeps instead of full O(nm) Brandes.
	bc, err := core.Compute(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 7, 500, 19999} {
		if bc[v] < 0 || math.IsNaN(bc[v]) {
			t.Fatalf("score[%d] = %v", v, bc[v])
		}
	}
	// Full comparison against succs (cheaper constant than preds-serial).
	want := brandes.Succs(g, 0)
	for v := range want {
		if math.Abs(want[v]-bc[v]) > 1e-6*math.Max(1, want[v]) {
			t.Fatalf("stress mismatch at %d: %v vs %v", v, want[v], bc[v])
		}
	}
}

func TestStressLargeRoadCloseness(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := gen.RoadLike(gen.RoadParams{Rows: 100, Cols: 100, DeleteFrac: 0.1,
		SpurFrac: 0.1, SpurLen: 3, Seed: 92})
	want := closeness.Exact(g, 0)
	got, err := closeness.Decomposed(g, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Farness {
		if math.Abs(want.Farness[v]-got.Farness[v]) > 1e-6*(1+want.Farness[v]) {
			t.Fatalf("farness mismatch at %d", v)
		}
	}
}

func TestStressDeepPath(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// 200k-vertex path: recursion-free BCC and decomposition must survive
	// extreme depth; BC of a path has the closed form 2·i·(n-1-i).
	n := 200_000
	g := gen.Path(n)
	d, err := decompose.Decompose(g, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subgraphs) < 2 {
		t.Fatal("path did not decompose")
	}
	bc, err := core.Compute(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, n / 4, n / 2, n - 2, n - 1} {
		want := 2 * float64(i) * float64(n-1-i)
		if math.Abs(bc[i]-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("path bc[%d] = %v, want %v", i, bc[i], want)
		}
	}
}
