package server

// Approximate-mode serving: GET /v1/graphs/{name}/bc?mode=approx is answered
// from a per-entry approx.Estimator cached next to the exact scores. The
// estimator is built lazily from an epoch snapshot's decomposition, refined
// just far enough to satisfy each query (a pivot budget or an eps target),
// and kept warm: after answering, one extra batch is refined in the
// background so repeated queries converge toward exactness without blocking
// anyone.
//
// Invalidation is lazy and epoch-keyed: the estimator remembers the epoch
// sequence number it sampled (Entry.estSeq). A mutation publishes a new
// epoch without touching estimator state at all; the next approx query
// compares the cached seq against the current snapshot's, releases the
// stale estimator's pooled sweeps back to the core arena, and rebuilds from
// the new epoch's decomposition — which is immutable, so sampling can
// proceed concurrently with further mutations.

import (
	"math"

	"repro/internal/approx"
	"repro/internal/core"
)

// approxSeed fixes the serving estimator's sampling seed: responses are
// deterministic for a given load + mutation history, which keeps the
// httptest suite and operators' curls reproducible.
const approxSeed = 1

// ApproxInfo describes a served estimate.
type ApproxInfo struct {
	// Pivots is the total root sweeps behind the estimate, ExactRoots what
	// the exact engine would need.
	Pivots     int   `json:"pivots"`
	ExactRoots int64 `json:"exact_roots"`
	// ErrorEstimate is the bootstrap CI half-width on normalized BC; 0 when
	// Exact (non-finite values are clamped to 0 with Exact == false only
	// before any batches exist, which a served query never observes).
	ErrorEstimate float64 `json:"error_estimate"`
	Exact         bool    `json:"exact"`
}

// estimatorFor returns the entry's cached estimator, rebuilding it when the
// cached one sampled an older epoch. Callers must hold e.estMu.
func (e *Entry) estimatorFor(snap core.Snapshot) (*approx.Estimator, error) {
	if e.est != nil && e.estSeq == snap.Seq {
		return e.est, nil
	}
	if e.est != nil {
		e.est.Release() // return the stale estimator's pooled sweeps
		e.est = nil
	}
	est, err := approx.NewEstimator(snap.Decomposition, approx.Options{Seed: approxSeed})
	if err != nil {
		return nil, err
	}
	e.est, e.estSeq = est, snap.Seq
	return est, nil
}

// dropEstimator releases the cached estimator's pooled workspaces (Unload).
func (e *Entry) dropEstimator() {
	e.estMu.Lock()
	defer e.estMu.Unlock()
	if e.est != nil {
		e.est.Release()
		e.est = nil
	}
}

// ApproxBC serves approximate scores for e, refining the cached estimator to
// the requested pivot budget (pivots > 0) or eps target (otherwise). The
// returned slice is private to the caller.
func (r *Registry) ApproxBC(e *Entry, pivots int, eps float64) ([]float64, ApproxInfo, error) {
	inc, err := e.ready()
	if err != nil {
		return nil, ApproxInfo{}, err
	}
	snap := inc.Snapshot()
	e.estMu.Lock()
	defer e.estMu.Unlock()
	est, err := e.estimatorFor(snap)
	if err != nil {
		return nil, ApproxInfo{}, err
	}
	before := est.Pivots()
	if pivots > 0 {
		est.EnsureBudget(pivots)
	} else {
		est.EnsureEps(eps)
	}
	info := ApproxInfo{
		Pivots:        est.Pivots(),
		ExactRoots:    est.ExactRoots(),
		ErrorEstimate: finiteOrZero(est.ErrorEstimate()),
		Exact:         est.Exact(),
	}
	r.m.observeApprox(e.name, est.Pivots()-before, info.ErrorEstimate)
	scores := est.Estimate()
	if !info.Exact {
		r.refineInBackground(e)
	}
	return scores, info, nil
}

// refineInBackground runs one extra batch on the entry's estimator off the
// request path. At most one refinement goroutine per entry is in flight; it
// re-checks the estimator under estMu because an unload or an epoch change
// may have intervened (a stale estimator is left alone — the next query
// replaces it).
func (r *Registry) refineInBackground(e *Entry) {
	if !e.refining.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.refining.Store(false)
		e.estMu.Lock()
		defer e.estMu.Unlock()
		if e.est == nil || e.est.Exact() {
			return
		}
		before := e.est.Pivots()
		if e.est.Refine(approx.DefaultBatchSize) > 0 {
			r.m.observeApprox(e.name, e.est.Pivots()-before, finiteOrZero(e.est.ErrorEstimate()))
		}
	}()
}

// finiteOrZero clamps the estimator's +Inf "no batches yet" sentinel for
// JSON (which cannot encode infinities).
func finiteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
