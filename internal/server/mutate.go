package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// mutRequest is one queued edge mutation; done (buffered) carries the
// outcome back to the blocked HTTP handler.
type mutRequest struct {
	add  bool
	u, v graph.V
	done chan mutOutcome
}

type mutOutcome struct {
	res MutationResult
	err error
}

// MutationResult reports how an edge update was absorbed.
type MutationResult struct {
	// Result names the kind of edit, not the work done: "rebuild" when the
	// endpoints of some edge of the batch shared no sub-graph before it (an
	// insertion that fuses blocks or attaches an isolated vertex), "local"
	// otherwise. Either way the batch is one fresh decomposition and a sweep
	// of each sub-graph it changed (core.Incremental).
	Result string `json:"result"`
	// Applied is the unambiguous effect marker: true means the edge update
	// was logged and published; a response without it means nothing changed.
	Applied bool  `json:"applied"`
	Verts   int   `json:"verts"`
	Edges   int64 `json:"edges"`
	// Batched is how many queued mutations shared this epoch publish (and
	// WAL fsync) with this one.
	Batched int `json:"batched,omitempty"`
	// TookMs is the wall time of the update (the whole batch's wall time
	// when Batched > 1).
	TookMs float64 `json:"took_ms"`
}

// Mutate enqueues an edge insert (add=true) or removal on the entry's
// bounded mutation queue and blocks until the worker reports the outcome.
// Admission control happens here: a full queue rejects immediately with an
// OverloadError (HTTP 429) instead of queueing without bound. Once enqueued,
// the call waits for the outcome unconditionally — a success response always
// means the mutation was logged and applied, never "maybe". Reads are
// unaffected throughout: they go through lock-free epoch snapshots and never
// enter this queue, which is the priority lane that keeps cached top-K
// latency flat during rebuilds.
func (r *Registry) Mutate(e *Entry, add bool, u, v int32) (MutationResult, error) {
	e.mu.RLock()
	if _, err := e.readyLocked(); err != nil {
		e.mu.RUnlock()
		return MutationResult{}, err
	}
	if e.mutCh == nil || e.mutStopped {
		// Ready but detached (unloaded mid-build) or shutting down.
		e.mu.RUnlock()
		return MutationResult{}, ErrShutdown
	}
	req := &mutRequest{add: add, u: graph.V(u), v: graph.V(v), done: make(chan mutOutcome, 1)}
	select {
	case e.mutCh <- req:
		e.pending.Add(1)
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		r.m.overload.With("mutation").Inc()
		return MutationResult{}, &OverloadError{Op: "mutation", Name: e.name, RetryAfter: r.lim.retryAfter}
	}
	out := <-req.done
	e.pending.Add(-1)
	return out.res, out.err
}

// stopMutations closes the entry's mutation queue (idempotent). The worker
// drains what is already queued, then exits; drop=true additionally skips
// the final snapshot because the durable directory is about to be deleted.
func (e *Entry) stopMutations(drop bool) {
	e.mu.Lock()
	if e.mutCh == nil || e.mutStopped {
		e.mu.Unlock()
		return
	}
	e.mutStopped = true
	e.dropDurable = drop
	close(e.mutCh)
	e.mu.Unlock()
}

// mutWorker is the entry's single mutation-applying goroutine: it drains the
// bounded queue in batches of up to MutationBatch ops, so a burst of N
// mutations costs one WAL fsync and ONE published epoch per batch instead of
// N rebuilds. Confining WAL and engine writes to one goroutine also removes
// any mutator-vs-mutator locking.
func (r *Registry) mutWorker(e *Entry) {
	defer func() {
		if e.wal != nil {
			if !e.dropDurable {
				// Final compaction: snapshot the current graph and truncate
				// the log so the next start replays nothing.
				snap := e.inc.Snapshot()
				if err := writeSnapshot(e.dir, snap.Graph); err == nil {
					e.wal.Reset()
					r.m.durability.With("snapshot").Inc()
				} else {
					r.m.durability.With("error").Inc()
				}
			}
			e.wal.Close()
		}
		close(e.mutDone)
		r.mutWg.Done()
	}()
	for req := range e.mutCh {
		if r.beforeMutate != nil {
			r.beforeMutate()
		}
		batch := append(make([]*mutRequest, 0, r.lim.mutationBatch), req)
	drain:
		for len(batch) < r.lim.mutationBatch {
			select {
			case more, ok := <-e.mutCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		r.processBatch(e, batch)
	}
}

// processBatch logs, applies and acknowledges one coalesced batch. Ordering
// is write-ahead: the WAL append+fsync happens BEFORE the engine apply, so
// an acknowledged mutation is always recoverable, and a WAL failure means
// the batch was not applied at all. A batch the engine refuses is truncated
// back out of the WAL.
func (r *Registry) processBatch(e *Entry, batch []*mutRequest) {
	start := time.Now()
	ops := make([]core.EdgeOp, len(batch))
	for i, req := range batch {
		ops[i] = core.EdgeOp{Add: req.add, U: req.u, V: req.v}
	}
	if e.wal != nil {
		if err := e.wal.Append(ops); err != nil {
			failBatch(batch, r.walFailed(e, err))
			return
		}
		r.m.durability.With("append").Inc()
	}
	inc := e.inc // set before the worker starts, never reassigned
	before := inc.FullRebuilds()
	errs, err := inc.ApplyBatch(ops)
	if err != nil {
		// The engine refused the whole batch and published nothing: take it
		// back out of the log, or a restart would replay it.
		if e.wal != nil {
			if werr := e.wal.Unappend(len(ops)); werr != nil {
				r.walFailed(e, werr)
			}
		}
		failBatch(batch, err)
		return
	}
	snap := inc.Snapshot()
	result := "local"
	if inc.FullRebuilds() > before {
		result = "rebuild"
	}
	tookMs := float64(time.Since(start)) / float64(time.Millisecond)
	for i, req := range batch {
		if errs[i] != nil {
			req.done <- mutOutcome{err: errs[i]}
			continue
		}
		// Count before acknowledging: a client that scrapes /metrics right
		// after its 200 must find its own mutation there.
		r.m.incremental.With(result).Inc()
		req.done <- mutOutcome{res: MutationResult{
			Result:  result,
			Applied: true,
			Verts:   snap.Graph.NumVertices(),
			Edges:   snap.Graph.NumEdges(),
			Batched: len(batch),
			TookMs:  tookMs,
		}}
	}
	r.m.batches.With().Inc()
	r.m.batchOps.With().Add(len(batch))
	if e.wal != nil && e.wal.records >= r.lim.snapshotEvery {
		if err := writeSnapshot(e.dir, snap.Graph); err != nil {
			r.walFailed(e, err)
		} else if err := e.wal.Reset(); err == nil {
			r.m.durability.With("snapshot").Inc()
		} else {
			r.m.durability.With("error").Inc()
		}
	}
}

// walFailed records e's first durability failure for Info, counts it, and
// returns it as a DurabilityError.
func (r *Registry) walFailed(e *Entry, err error) *DurabilityError {
	derr := &DurabilityError{Name: e.name, Err: err}
	e.mu.Lock()
	if e.walErr == "" {
		e.walErr = derr.Error()
	}
	e.mu.Unlock()
	r.m.durability.With("error").Inc()
	return derr
}

// failBatch answers every request of a batch that was not applied with err.
func failBatch(batch []*mutRequest, err error) {
	for _, req := range batch {
		req.done <- mutOutcome{err: err}
	}
}
