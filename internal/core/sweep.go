package core

import (
	"repro/internal/decompose"
	"repro/internal/graph"
)

// RootSweep exposes the unweighted four-dependency engine (state.go) to
// samplers outside this package — internal/approx's per-sub-graph pivot
// estimator — so that they run exactly the same arithmetic as the exact
// engine. A full-budget sample therefore reproduces the one-worker path of
// ComputeDecomposed bit-for-bit, not merely "up to rounding": same per-root
// sweep, same in-sub-graph accumulation order, same α/β/γ seeds.
//
// Usage discipline: after a group of Run calls on one sub-graph, Collect the
// accumulated scores with dst sized to that sub-graph's NumVerts before
// switching to another sub-graph. Collect zeroes the internal buffer, which
// keeps the scratch reusable across sub-graphs of different sizes.
//
// The scratch itself is a pooled ws.Sweep checked out of the shared core
// arena on the first Run; long-lived holders (the cached bcd estimator keeps
// one RootSweep per worker warm across requests) should call Release when
// idle or discarded so the workspace returns to the pool.
type RootSweep struct {
	e engine
}

// Run executes Algorithm 2 for the given roots of sg in order (forward σ BFS
// plus the backward four-dependency accumulation with the α/β/γ boundary
// terms), adding their contributions into the sweep's local score buffer. The
// scratch grows on demand and is reusable across sub-graphs. The roots go
// through whichever kernel the exact engine's rule gives the range
// (engine.runRoots: a lane word at a time or one by one, each sweep with its
// per-level direction choices) — all bit-neutral, so however a caller groups
// its roots into calls, the result is that of sweeping them one after another
// and the bit-for-bit replay guarantee holds. A root whose path counts
// overflow float64 makes Run return graph.ErrPathCountOverflow, and the
// scores it accumulated are meaningless.
func (rs *RootSweep) Run(sg *decompose.Subgraph, roots []int32, directed bool) error {
	rs.e.ensure(sg)
	rs.e.overflow = false
	rs.e.runRoots(sg, roots, directed)
	if rs.e.overflow {
		return graph.ErrPathCountOverflow
	}
	return nil
}

// Collect adds the accumulated local scores for the first len(dst) local
// vertices into dst and zeroes the internal buffer, leaving the sweep ready
// for the next sub-graph or pivot batch.
func (rs *RootSweep) Collect(dst []float64) {
	if rs.e.ws == nil {
		return
	}
	bc := rs.e.ws.BC
	for l := range dst {
		dst[l] += bc[l]
		bc[l] = 0
	}
}

// Release returns the pooled workspace to the shared arena. The sweep stays
// usable — the next Run checks a workspace out again — but callers must
// Collect any pending scores first (Release drops them back into the pool's
// clean state by zeroing the accumulation buffer).
func (rs *RootSweep) Release() {
	if rs.e.ws == nil {
		return
	}
	for l := range rs.e.ws.BC {
		rs.e.ws.BC[l] = 0
	}
	rs.e.release()
}
