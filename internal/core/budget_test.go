package core

import (
	"testing"

	"repro/internal/decompose"
	"repro/internal/gen"
)

// TestRootBudgetDeterministic pins RootBudget's contract: the trimmed root
// set is a pure function of (decomposition, budget), so a budgeted run is
// bit-identical across worker counts, schedulers and engines — exactly the
// property the at-scale sweeps rely on when they compare p=1 against p=8 on
// a budget instead of a full exact run.
func TestRootBudgetDeterministic(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{
		N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1})
	for _, budget := range []int{1, 7, 50} {
		base, err := Compute(g, Options{Workers: 1, Threshold: 8, RootBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{Workers: 8, Threshold: 8, RootBudget: budget},
			{Workers: 8, Threshold: 8, RootBudget: budget, Scheduler: SchedulerStatic},
			{Workers: 8, Threshold: 8, RootBudget: budget, RootEngine: EngineMSBFS},
			{Workers: 3, Threshold: 8, RootBudget: budget, Scheduler: SchedulerStatic},
		} {
			got, err := Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range base {
				if base[v] != got[v] {
					t.Fatalf("budget=%d opt=%+v: BC[%d] = %v, want %v (bit-exact)",
						budget, opt, v, got[v], base[v])
				}
			}
		}
	}
}

// A budget at or above the total root count must replay the exact
// computation bit for bit, and a smaller budget must actually trim:
// Breakdown.Roots reports the realized count, bounded below by one root per
// non-empty sub-graph and above by budget + #subgraphs (the ceiling slack).
func TestRootBudgetExactAndTrimmed(t *testing.T) {
	g := gen.SocialLike(gen.SocialParams{
		N: 400, AvgDeg: 5, Communities: 6, TopShare: 0.5, LeafFrac: 0.3, Seed: 1})
	d, err := decompose.Decompose(g, decompose.Options{Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	total := int(d.TotalRoots())
	if total < 20 {
		t.Fatalf("fixture too small: %d roots", total)
	}

	var full Breakdown
	exact, err := Compute(g, Options{Workers: 4, Threshold: 8, Breakdown: &full})
	if err != nil {
		t.Fatal(err)
	}
	if full.Roots != int64(total) {
		t.Fatalf("unbudgeted run processed %d roots, decomposition has %d", full.Roots, total)
	}

	var capped Breakdown
	replay, err := Compute(g, Options{
		Workers: 4, Threshold: 8, RootBudget: total, Breakdown: &capped})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Roots != int64(total) {
		t.Fatalf("budget=total processed %d roots, want %d", capped.Roots, total)
	}
	for v := range exact {
		if exact[v] != replay[v] {
			t.Fatalf("budget=total diverged from exact at vertex %d", v)
		}
	}

	budget := total / 4
	var trimmed Breakdown
	if _, err := Compute(g, Options{
		Workers: 4, Threshold: 8, RootBudget: budget, Breakdown: &trimmed}); err != nil {
		t.Fatal(err)
	}
	nsg := int64(len(d.Subgraphs))
	if trimmed.Roots < 1 || trimmed.Roots > int64(budget)+nsg {
		t.Fatalf("budget=%d realized %d roots, want within [1, %d]",
			budget, trimmed.Roots, int64(budget)+nsg)
	}
	if trimmed.Roots >= full.Roots {
		t.Fatalf("budget=%d did not trim (%d of %d roots)", budget, trimmed.Roots, full.Roots)
	}
}

// rootPrefix is the proportional-allocation primitive behind RootBudget;
// check its boundary behavior directly.
func TestRootPrefix(t *testing.T) {
	cases := []struct {
		nr     int
		total  int64
		budget int
		want   int
	}{
		{10, 100, 0, 10},   // no budget: keep everything
		{10, 100, -1, 10},  // negative: keep everything
		{10, 100, 100, 10}, // budget == total: keep everything
		{10, 100, 200, 10}, // budget > total: keep everything
		{10, 100, 50, 5},   // exact half
		{10, 100, 1, 1},    // ceiling floor: never drop a non-empty sub-graph
		{1, 100, 1, 1},
		{0, 100, 1, 0}, // empty stays empty
		{7, 7, 3, 3},
	}
	for _, tc := range cases {
		if got := rootPrefix(tc.nr, tc.total, tc.budget); got != tc.want {
			t.Errorf("rootPrefix(%d, %d, %d) = %d, want %d",
				tc.nr, tc.total, tc.budget, got, tc.want)
		}
	}
}
