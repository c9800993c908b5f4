// Package server is the serving subsystem behind the bcd daemon: a Registry
// of named loaded graphs, each holding a core.Incremental handle, plus the
// net/http JSON API over it (server.go) and its Prometheus metrics
// (metrics.go).
//
// The decomposition-based structure is what makes serving cheap: biconnected
// blocks and α/β/γ weights are computed once at load time and reused across
// every query, and intra-block edge updates flow through core.Incremental
// instead of recomputing the world.
//
// Concurrency model: core.Incremental publishes immutable epochs behind an
// atomic pointer, so queries read through inc.Snapshot() without holding any
// entry lock during the read — the per-entry RWMutex only guards the entry
// lifecycle fields (state, error, the inc pointer itself), and a mutation's
// exclusive window is the pointer swap inside the engine, not the recompute.
// Per-request scratch (top-K ranking) and the engines' per-vertex sweep
// state come from pooled arenas (sync.Pool here, internal/ws in core), so a
// warm daemon serves queries without per-request heap allocation outside
// JSON encoding.
//
// Files: registry.go (registry, unload, close), load.go (load and build
// jobs), mutate.go (mutation pipeline), query.go (read paths), approx.go,
// wal.go (durability, Recover), errors.go, metrics.go, server.go (HTTP).
package server

import (
	"context"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
)

// State is a loaded graph's lifecycle phase.
type State string

const (
	// StateLoading means the build job (parse + decompose + initial BC) is
	// queued or running.
	StateLoading State = "loading"
	// StateReady means queries and mutations are being served.
	StateReady State = "ready"
	// StateFailed means the build job errored; the entry stays visible so
	// clients can read the error, and the name can be re-used after Unload.
	StateFailed State = "failed"
	// StateAborted means the build job was cut short by registry shutdown,
	// not by a build error — job polling can tell the two apart.
	StateAborted State = "aborted"
)

// Config tunes a Registry.
type Config struct {
	// Workers bounds how many build/recompute jobs run concurrently (a
	// fixed worker set draining a shared queue). <= 0 means 2.
	Workers int
	// QueueDepth bounds the number of queued build jobs; <= 0 means 16.
	// Loads beyond it are rejected with an error rather than queued without
	// bound.
	QueueDepth int
	// DefaultThreshold is the decomposition threshold used when a LoadSpec
	// does not set one; <= 0 means decompose.DefaultThreshold.
	DefaultThreshold int

	// DataDir enables durability: each graph gets a WAL + snapshot directory
	// under it (see wal.go) and Recover can rebuild the registry after a
	// crash or restart. Empty disables durability.
	DataDir string
	// SnapshotEvery bounds the WAL: after this many logged mutation records
	// the worker writes a fresh snapshot and truncates the log. <= 0 means
	// 256.
	SnapshotEvery int
	// MutationQueueDepth bounds each graph's pending-mutation queue;
	// mutations beyond it are rejected with an OverloadError (HTTP 429)
	// instead of queueing without bound. <= 0 means 128.
	MutationQueueDepth int
	// MutationBatch caps how many queued mutations the worker coalesces into
	// one engine batch — one WAL fsync and ONE published epoch per batch,
	// instead of one rebuild per edge. <= 0 means 64.
	MutationBatch int
	// RetryAfter is the backoff hint attached to OverloadErrors (the HTTP
	// layer's Retry-After header). <= 0 means 1s.
	RetryAfter time.Duration
}

// Entry is one named graph in the registry. mu guards the lifecycle fields
// only; once an entry is ready, queries go through inc.Snapshot() and never
// hold mu while reading graph data.
type Entry struct {
	name string

	mu        sync.RWMutex
	state     State
	err       error // why the build failed (StateFailed, StateAborted)
	inc       *core.Incremental
	threshold int
	loadedAt  time.Time
	buildTime time.Duration

	// est is the lazily built approximate-mode estimator (approx.go),
	// pinned to the epoch sequence number it sampled (estSeq) — a mutation
	// publishes a new epoch and the next approx query notices the stale seq
	// and rebuilds, so Mutate never touches estimator state. estMu is
	// separate from mu (never acquired while holding mu) so long-running
	// refinement cannot block exact queries or mutations; refining guards
	// the single background refinement goroutine.
	estMu    sync.Mutex
	est      *approx.Estimator
	estSeq   uint64
	refining atomic.Bool

	// Durability + admission control (set once when the build job finishes,
	// before the mutation worker starts; dir/wal are then confined to that
	// worker). mutCh is the bounded mutation queue: Mutate enqueues under
	// mu.RLock, stopMutations closes it under mu.Lock, so a send can never
	// race a close. walErr records the first durability failure for Info.
	dir         string
	wal         *walWriter
	walErr      string
	mutCh       chan *mutRequest
	mutStopped  bool
	dropDurable bool
	mutDone     chan struct{}
	pending     atomic.Int64

	// topk is the epoch-seq-keyed top-K singleflight cache (query.go).
	topk topkCache
}

// Registry is the set of loaded graphs plus the bounded build-job pool.
type Registry struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	// m is the registry's metrics; the Server over it serves them.
	m *Metrics

	mu     sync.RWMutex
	graphs map[string]*Entry
	closed bool
	// dropping holds, per name, an unloaded entry's directory removal still
	// under way (closed when done); a new load of the name waits on it.
	dropping map[string]chan struct{}

	jobs chan buildJob
	wg   sync.WaitGroup
	// mutWg tracks per-entry mutation workers; Close waits on it after the
	// build workers have drained, so no new worker can start mid-shutdown.
	mutWg sync.WaitGroup

	// beforeBuild and beforeMutate, when set (tests only), run at the start
	// of every build job / mutation batch — they let tests hold a worker
	// busy deterministically.
	beforeBuild  func()
	beforeMutate func()
}

// NewRegistry starts the worker pool. Close must be called to release it.
func NewRegistry(cfg Config) *Registry {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.MutationQueueDepth <= 0 {
		cfg.MutationQueueDepth = 128
	}
	if cfg.MutationBatch <= 0 {
		cfg.MutationBatch = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		m:        newMetrics(),
		graphs:   map[string]*Entry{},
		dropping: map[string]chan struct{}{},
		jobs:     make(chan buildJob, cfg.QueueDepth),
	}
	// A fixed worker set draining a shared queue: jobs arrive over time
	// rather than as a fixed index range.
	r.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go r.worker()
	}
	return r
}

// Get returns the entry for name, or nil.
func (r *Registry) Get(name string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[name]
}

// entries copies the registered entries out from under r.mu.
func (r *Registry) entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e)
	}
	return out
}

// Unload removes name from the registry. In-flight queries finish on their
// epoch snapshots; a build job still running for it completes into the
// detached entry and is garbage afterwards. The entry's cached estimator is
// released so its pooled sweep workspaces return to the shared arena, its
// mutation worker drains and exits, and its durable directory is deleted —
// an unloaded graph does not come back on Recover.
func (r *Registry) Unload(name string) bool {
	r.mu.Lock()
	e, ok := r.graphs[name]
	delete(r.graphs, name)
	r.mu.Unlock()
	if ok {
		e.dropEstimator()
		e.stopMutations(true)
		e.mu.RLock()
		dir, done := e.dir, e.mutDone
		e.mu.RUnlock()
		if dir != "" {
			// Wait for the worker to release its WAL handle, then drop the
			// directory; async so the HTTP handler is not held behind a
			// draining batch; a load of the name meanwhile waits on r.dropping.
			gone := make(chan struct{})
			r.mu.Lock()
			r.dropping[name] = gone
			r.mu.Unlock()
			go func() {
				if done != nil {
					<-done
				}
				os.RemoveAll(dir)
				r.mu.Lock()
				delete(r.dropping, name)
				r.mu.Unlock()
				close(gone)
			}()
		}
		r.m.graphs.With().Set(int64(r.NumReady()))
	}
	return ok
}

// List returns a snapshot of every entry, sorted by name.
func (r *Registry) List() []EntryInfo {
	entries := r.entries()
	out := make([]EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumReady counts entries currently in StateReady.
func (r *Registry) NumReady() int {
	n := 0
	for _, e := range r.entries() {
		e.mu.RLock()
		if e.state == StateReady {
			n++
		}
		e.mu.RUnlock()
	}
	return n
}

// Close shuts the registry down: queued builds are aborted (marked
// StateAborted, distinguishable from genuine failures), running builds
// finish, every mutation worker drains its queue, writes a final snapshot
// and closes its WAL, unloaded graphs' directories are gone, and no further
// loads are accepted. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()

	r.cancel()
	close(r.jobs)
	r.wg.Wait()
	// Workers have exited; whatever is still queued was never started.
	for j := range r.jobs {
		j.e.fail(r.m, "canceled", errAborted)
	}
	// All build workers are done, so the set of mutation workers is final:
	// stop each (drains queued mutations, final snapshot + WAL close) and
	// wait for them.
	for _, e := range r.entries() {
		e.stopMutations(false)
	}
	r.mutWg.Wait()
	// With the workers gone every unloaded graph's directory removal can
	// finish; wait for it, or a restart would recover the graph.
	r.mu.RLock()
	var drops []chan struct{}
	for _, gone := range r.dropping {
		drops = append(drops, gone)
	}
	r.mu.RUnlock()
	for _, gone := range drops {
		<-gone
	}
}
