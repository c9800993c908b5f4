package approx

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decompose"
)

// laneEligible restates core's kernel rule for a root range of sg (64 swept
// vertices, 8 roots, 64 lanes × 40 B per swept vertex within 2 MiB), so that
// the tests below can tell a fixture that reaches the lane kernel from one
// that does not.
func laneEligible(sg *decompose.Subgraph, roots int) bool {
	return len(sg.Roots) >= 64 && roots >= 8 && len(sg.Roots)*64*40 <= 2<<20
}

// TestEngineBitMatch pins the estimator's kernel-independence at partial
// budgets: the pivot groups it hands to core.SweepRoots — which the kernel
// rule sends through the lane kernel wherever a group is large enough — must
// sum to what the same pivots give handed over one per group (under the
// rule's lower bound on a unit, so the scalar kernel), bit for bit, for serial
// and parallel workers. After the presolve pass and one refine, a sub-graph's
// sum is exactly one group's contribution.
func TestEngineBitMatch(t *testing.T) {
	lanes := 0
	for name, g := range testGraphs() {
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			est, err := newEstimator(d, Options{Seed: 11, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := est.refine(48); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for si, s := range est.subs {
				roots := s.sg.Roots // presolved: the exact schedule
				if s.perm != nil {
					roots = s.perm[:s.next]
				}
				if laneEligible(s.sg, len(roots)) {
					lanes++
				}
				ones := make([]core.RootGroup, len(roots))
				for i := range roots {
					ones[i] = core.RootGroup{Subgraph: s.sg, Roots: roots[i : i+1]}
				}
				contribs, err := core.SweepRoots(d, ones, workers)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(s.sg.Roots))
				for _, c := range contribs {
					for l := range want {
						want[l] += c[l]
					}
				}
				for l := range want {
					if s.sum[l] != want[l] {
						t.Fatalf("%s w=%d sub-graph %d (%d pivots) vertex %d: estimator %v, one root per group %v",
							name, workers, si, len(roots), l, s.sum[l], want[l])
					}
				}
			}
		}
	}
	if lanes == 0 {
		t.Fatal("no pivot group was large enough for the lane kernel: the test compared scalar with scalar")
	}
}

// TestEngineExactBudgetBitMatch: the full-budget estimator — whole root lists
// through the kernel rule — replays the exact one-worker path bit for bit
// whichever kernels that path uses: the rule's, and lanes forced onto every
// unit (core.EngineMSBFS). core's TestMSBFSEngineBitMatchesScalar holds both
// to the scalar kernel everywhere.
func TestEngineExactBudgetBitMatch(t *testing.T) {
	lanes := 0
	for name, g := range testGraphs() {
		res, err := Estimate(g, Options{Pivots: g.NumVertices(), Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Exact {
			t.Errorf("%s: full budget not flagged exact", name)
		}
		d, err := decompose.Decompose(g, decompose.Options{})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := core.ComputeDecomposed(d, core.Options{Workers: 1, RootEngine: core.EngineMSBFS})
		if err != nil {
			t.Fatal(err)
		}
		rule, err := core.ComputeDecomposed(d, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range d.Subgraphs {
			if laneEligible(sg, len(sg.Roots)) {
				lanes++
			}
		}
		for v := range res.BC {
			if res.BC[v] != forced[v] || res.BC[v] != rule[v] {
				t.Fatalf("%s: vertex %d: approx %v, exact with forced lanes %v, under the kernel rule %v (bit mismatch)",
					name, v, res.BC[v], forced[v], rule[v])
			}
		}
	}
	if lanes == 0 {
		t.Fatal("no sub-graph of the fixtures is within the lane kernel's rule")
	}
}
