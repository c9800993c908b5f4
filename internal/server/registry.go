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
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/metrics"
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

// LoadSpec names a graph source for Registry.Load. Exactly one of Dataset,
// Path or Edges must be set.
type LoadSpec struct {
	// Name registers the graph under this identifier (required,
	// [A-Za-z0-9._-]{1,64}).
	Name string `json:"name"`

	// Dataset is a named synthetic dataset (datasets.Names), built at Scale
	// (<= 0 means 0.25).
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`

	// Path is a graph file readable by graphio.LoadFile; Format overrides
	// extension sniffing and Directed applies to edge-list input.
	Path     string `json:"path,omitempty"`
	Format   string `json:"format,omitempty"`
	Directed bool   `json:"directed,omitempty"`

	// Edges is an inline edge list over vertices [0, N); Directed applies.
	N     int        `json:"n,omitempty"`
	Edges [][2]int32 `json:"edges,omitempty"`

	// Threshold overrides the registry's default decomposition threshold.
	Threshold int `json:"threshold,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Entry is one named graph in the registry. mu guards the lifecycle fields
// only; once an entry is ready, queries go through inc.Snapshot() and never
// hold mu while reading graph data.
type Entry struct {
	name string

	mu        sync.RWMutex
	state     State
	err       string
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

	// topk is the epoch-seq-keyed top-K singleflight cache (coalesce.go).
	topk topkCache
}

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

// EntryInfo is a point-in-time snapshot of an entry, JSON-ready.
type EntryInfo struct {
	Name     string `json:"name"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Directed bool   `json:"directed,omitempty"`
	Verts    int    `json:"verts,omitempty"`
	Edges    int64  `json:"edges,omitempty"`
	// Threshold is the decomposition threshold the graph was loaded with.
	Threshold int `json:"threshold,omitempty"`
	// Subgraphs/BoundaryAPs echo the cached decomposition's shape.
	Subgraphs   int `json:"subgraphs,omitempty"`
	BoundaryAPs int `json:"boundary_aps,omitempty"`
	// LocalUpdates and FullRebuilds count mutations by kind of edit (see
	// MutationResult.Result).
	LocalUpdates int `json:"local_updates"`
	FullRebuilds int `json:"full_rebuilds"`
	// LoadedAt/BuildMs are set once the build job finishes.
	LoadedAt *time.Time `json:"loaded_at,omitempty"`
	BuildMs  float64    `json:"build_ms,omitempty"`
	// Epoch is the engine's published epoch sequence number — load-generator
	// clients compare it against the mutations they sent to observe batching.
	Epoch uint64 `json:"epoch,omitempty"`
	// PendingMutations is the current mutation-queue depth.
	PendingMutations int `json:"pending_mutations,omitempty"`
	// Durable reports whether the entry has a WAL+snapshot directory;
	// DurabilityError surfaces the first WAL/snapshot failure, if any.
	Durable         bool   `json:"durable,omitempty"`
	DurabilityError string `json:"durability_error,omitempty"`
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

// Registry is the set of loaded graphs plus the bounded build-job pool.
type Registry struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

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

	// onLoadDone, onMutate and onApprox are metrics hooks (nil-safe); see
	// metrics.go.
	onLoadDone   func(status string)
	onMutate     func(result string)
	onCount      func(loaded int)
	onApprox     func(name string, pivots int, errEstimate float64)
	onOverload   func(op string)
	onBatch      func(ops int)
	onTopK       func(hit bool)
	onDurability func(event string)

	// beforeBuild and beforeMutate, when set (tests only), run at the start
	// of every build job / mutation batch — they let tests hold a worker
	// busy deterministically.
	beforeBuild  func()
	beforeMutate func()
}

type buildJob struct {
	e    *Entry
	spec LoadSpec
	// pre, when non-nil, is a graph recovered from a durable directory
	// (Recover): the job skips source materialization and pays only the
	// decomposition of the recovered state.
	pre *graph.Graph
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

func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			// Abort queued builds: drain whatever is left so Close's final
			// drain and this race cleanly (each job is marked exactly once).
			return
		case j, ok := <-r.jobs:
			if !ok {
				return
			}
			r.runBuild(j)
		}
	}
}

// runBuild executes one load job: materialize the graph (or take the
// recovered one), decompose, compute initial BC, then set up durability and
// start the entry's mutation worker. The coarse-grained cancellation points
// are between phases — the phases themselves are CPU-bound library calls.
func (r *Registry) runBuild(j buildJob) {
	if r.beforeBuild != nil {
		r.beforeBuild()
	}
	start := time.Now()
	fail := func(status string, err error) {
		state := StateFailed
		if status == "canceled" {
			// Shutdown, not a build error: record the distinction so job
			// polling can tell the two apart.
			state = StateAborted
		}
		j.e.mu.Lock()
		j.e.state = state
		j.e.err = err.Error()
		j.e.mu.Unlock()
		r.notifyLoadDone(status)
	}
	if err := r.ctx.Err(); err != nil {
		fail("canceled", fmt.Errorf("server: load aborted by shutdown: %w", err))
		return
	}
	inc, status, err := r.buildEngine(j)
	if err != nil {
		fail(status, err)
		return
	}
	g := inc.Graph()

	// Only an entry still registered (not Unloaded mid-build, registry not
	// closing) gets durable state and a mutation worker; a detached entry
	// completes as inert garbage, exactly as before. The mutWg.Add happens
	// inside the build worker, so Close's ordering (wg.Wait, then
	// mutWg.Wait) can never miss a worker.
	r.mu.Lock()
	attached := !r.closed && r.graphs[j.e.name] == j.e
	if attached {
		r.mutWg.Add(1)
	}
	r.mu.Unlock()

	var dir string
	var wal *walWriter
	if attached && r.cfg.DataDir != "" {
		dir = filepath.Join(r.cfg.DataDir, j.e.name)
		if err := r.initDurable(dir, j.e, g); err != nil {
			r.mutWg.Done()
			fail("error", err)
			return
		}
		// The build-time snapshot already holds the full graph (for a
		// recovered entry that compacts the replayed WAL), so the log
		// restarts empty.
		wal, err = openWAL(filepath.Join(dir, walFile))
		if err == nil {
			err = wal.Reset()
		}
		if err != nil {
			if wal != nil {
				wal.Close()
			}
			r.mutWg.Done()
			fail("error", &DurabilityError{Name: j.e.name, Err: err})
			return
		}
	}

	// No transpose pre-materialization needed here: the incremental engine
	// ensures directed epochs publish with the transpose already built, so
	// concurrent lock-free readers never trigger the lazy In() build.
	j.e.mu.Lock()
	j.e.inc = inc
	j.e.state = StateReady
	j.e.loadedAt = time.Now().UTC()
	j.e.buildTime = time.Since(start)
	if attached {
		j.e.dir = dir
		j.e.wal = wal
		j.e.mutCh = make(chan *mutRequest, r.cfg.MutationQueueDepth)
		j.e.mutDone = make(chan struct{})
	}
	j.e.mu.Unlock()
	if attached {
		go r.mutWorker(j.e)
	}
	r.notifyLoadDone("ok")
	r.notifyCount(r.NumReady())
}

// buildEngine materializes the graph (or takes the recovered one) and builds
// its first epoch; status is what fail records if err is not nil.
// A panic in either — an input Load's checks let through — fails this build
// with the panic's text instead of taking the daemon down.
func (r *Registry) buildEngine(j buildJob) (inc *core.Incremental, status string, err error) {
	defer func() {
		if p := recover(); p != nil {
			inc, status, err = nil, "error", fmt.Errorf("server: build of %q panicked: %v", j.e.name, p)
		}
	}()
	g := j.pre
	if g == nil {
		if g, err = buildGraph(j.spec); err != nil {
			return nil, "error", err
		}
	}
	if err := r.ctx.Err(); err != nil {
		return nil, "canceled", fmt.Errorf("server: load aborted by shutdown: %w", err)
	}
	inc, err = core.NewIncremental(g, core.Options{Threshold: j.e.threshold})
	return inc, "error", err
}

// initDurable creates the entry's durable directory and writes the
// load-parameter sidecar plus the build-time snapshot.
func (r *Registry) initDurable(dir string, e *Entry, g *graph.Graph) error {
	// An unloaded predecessor of the name may still be deleting this directory.
	r.mu.RLock()
	gone := r.dropping[e.name]
	r.mu.RUnlock()
	if gone != nil {
		<-gone
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return &DurabilityError{Name: e.name, Err: err}
	}
	meta := graphMeta{
		Name:      e.name,
		Threshold: e.threshold,
		Directed:  g.Directed(),
		SavedAt:   time.Now().UTC(),
	}
	if err := writeMeta(dir, meta); err != nil {
		return &DurabilityError{Name: e.name, Err: err}
	}
	if err := writeSnapshot(dir, g); err != nil {
		return &DurabilityError{Name: e.name, Err: err}
	}
	r.notifyDurability("snapshot")
	return nil
}

func buildGraph(spec LoadSpec) (*graph.Graph, error) {
	switch {
	case spec.Dataset != "":
		scale := spec.Scale
		if scale <= 0 {
			scale = 0.25
		}
		if spec.Dataset == "human-disease" {
			_, g := datasets.HumanDisease()
			return g, nil
		}
		ds, err := datasets.ByName(spec.Dataset)
		if err != nil {
			return nil, err
		}
		return ds.Build(scale), nil
	case spec.Path != "":
		return graphio.LoadFile(spec.Path, spec.Format, spec.Directed)
	case len(spec.Edges) > 0:
		n := spec.N
		edges := make([]graph.Edge, len(spec.Edges))
		for i, e := range spec.Edges {
			edges[i] = graph.Edge{From: e[0], To: e[1]}
			for _, v := range e {
				if int(v) >= n {
					n = int(v) + 1
				}
				if v < 0 {
					return nil, fmt.Errorf("server: negative vertex %d in inline edge list", v)
				}
			}
		}
		return graph.NewFromEdges(n, edges, spec.Directed), nil
	default:
		return nil, fmt.Errorf("server: load spec needs one of dataset, path or edges")
	}
}

// Load registers spec.Name and enqueues the build job. It returns
// immediately; poll Get until the state leaves StateLoading.
func (r *Registry) Load(spec LoadSpec) (*Entry, error) {
	// "." and ".." pass nameRE but would escape DataDir via filepath.Join;
	// reject them outright.
	if !nameRE.MatchString(spec.Name) || spec.Name == "." || spec.Name == ".." {
		return nil, fmt.Errorf("server: invalid graph name %q (want %s)", spec.Name, nameRE)
	}
	if spec.Dataset == "" && spec.Path == "" && len(spec.Edges) == 0 {
		return nil, fmt.Errorf("server: load spec needs one of dataset, path or edges")
	}
	if spec.N < 0 || spec.N > 1<<31 {
		return nil, &vertexCountError{N: spec.N}
	}
	threshold := spec.Threshold
	if threshold <= 0 {
		threshold = r.cfg.DefaultThreshold
	}
	e := &Entry{name: spec.Name, state: StateLoading, threshold: threshold}

	// The enqueue happens under r.mu so Close (which takes r.mu before
	// closing the channel) can never close r.jobs mid-send.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrShutdown
	}
	if _, ok := r.graphs[spec.Name]; ok {
		return nil, &ConflictError{Name: spec.Name}
	}
	select {
	case r.jobs <- buildJob{e: e, spec: spec}:
		r.graphs[spec.Name] = e
		return e, nil
	default:
		r.notifyOverload("build")
		return nil, &OverloadError{Op: "build", Name: spec.Name, RetryAfter: r.cfg.RetryAfter}
	}
}

// vertexCountError reports an inline n outside [0, 2³¹] — the bound graphio
// applies to a binary file's header, vertex ids being int32. HTTP answers it
// with 400 before any build is queued.
type vertexCountError struct{ N int }

func (e *vertexCountError) Error() string {
	return fmt.Sprintf("server: inline vertex count n=%d outside [0,%d]", e.N, 1<<31)
}

// ConflictError reports a Load against a name already in use.
type ConflictError struct{ Name string }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("server: graph %q already loaded", e.Name)
}

// ErrShutdown reports an operation against a registry that has been closed.
// HTTP maps it to 503.
var ErrShutdown = errors.New("server: registry is shut down")

// OverloadError is the admission-control rejection: the bounded queue for Op
// ("build" or "mutation") is full. It is load shedding, not a client error —
// HTTP maps it to 429 with a Retry-After header, never 400.
type OverloadError struct {
	Op         string
	Name       string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: %s queue full for %q, retry after %s", e.Op, e.Name, e.RetryAfter)
}

// DurabilityError wraps a WAL or snapshot failure. The write-ahead ordering
// means a mutation whose WAL append failed was NOT applied.
type DurabilityError struct {
	Name string
	Err  error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("server: durability failure for %q: %v", e.Name, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// Get returns the entry for name, or nil.
func (r *Registry) Get(name string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.graphs[name]
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
		r.notifyCount(r.NumReady())
	}
	return ok
}

// List returns a snapshot of every entry, sorted by name.
func (r *Registry) List() []EntryInfo {
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumReady counts entries currently in StateReady.
func (r *Registry) NumReady() int {
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	n := 0
	for _, e := range entries {
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
// and closes its WAL, and no further loads are accepted. Safe to call more
// than once.
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
		j.e.mu.Lock()
		j.e.state = StateAborted
		j.e.err = "server: load aborted by shutdown"
		j.e.mu.Unlock()
		r.notifyLoadDone("canceled")
	}
	// All build workers are done, so the set of mutation workers is final:
	// stop each (drains queued mutations, final snapshot + WAL close) and
	// wait for them.
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.stopMutations(false)
	}
	r.mutWg.Wait()
}

func (r *Registry) notifyLoadDone(status string) {
	if r.onLoadDone != nil {
		r.onLoadDone(status)
	}
}

func (r *Registry) notifyMutate(result string) {
	if r.onMutate != nil {
		r.onMutate(result)
	}
}

func (r *Registry) notifyCount(n int) {
	if r.onCount != nil {
		r.onCount(n)
	}
}

func (r *Registry) notifyOverload(op string) {
	if r.onOverload != nil {
		r.onOverload(op)
	}
}

func (r *Registry) notifyBatch(ops int) {
	if r.onBatch != nil {
		r.onBatch(ops)
	}
}

func (r *Registry) notifyTopK(hit bool) {
	if r.onTopK != nil {
		r.onTopK(hit)
	}
}

func (r *Registry) notifyDurability(event string) {
	if r.onDurability != nil {
		r.onDurability(event)
	}
}

// ---- Entry accessors -------------------------------------------------------

// Name returns the registry key.
func (e *Entry) Name() string { return e.name }

// Info snapshots the entry. Graph-shaped fields come from one epoch
// snapshot, so they are mutually consistent even while mutations land.
func (e *Entry) Info() EntryInfo {
	e.mu.RLock()
	info := EntryInfo{
		Name:      e.name,
		State:     e.state,
		Error:     e.err,
		Threshold: e.threshold,
	}
	inc := e.inc
	if inc != nil {
		at := e.loadedAt
		info.LoadedAt = &at
		info.BuildMs = float64(e.buildTime) / float64(time.Millisecond)
	}
	info.Durable = e.dir != ""
	info.DurabilityError = e.walErr
	e.mu.RUnlock()
	if inc != nil {
		snap := inc.Snapshot()
		g, d := snap.Graph, snap.Decomposition
		info.Directed = g.Directed()
		info.Verts = g.NumVertices()
		info.Edges = g.NumEdges()
		info.Subgraphs = len(d.Subgraphs)
		info.BoundaryAPs = d.NumArticulation
		info.LocalUpdates = inc.LocalUpdates()
		info.FullRebuilds = inc.FullRebuilds()
		info.Epoch = snap.Seq
		info.PendingMutations = int(e.pending.Load())
	}
	return info
}

// NotReadyError reports an operation against an entry that is not serving.
type NotReadyError struct {
	Name  string
	State State
	Cause string
}

func (e *NotReadyError) Error() string {
	if e.Cause != "" {
		return fmt.Sprintf("server: graph %q is %s: %s", e.Name, e.State, e.Cause)
	}
	return fmt.Sprintf("server: graph %q is %s", e.Name, e.State)
}

// readyLocked returns the incremental handle if the entry serves, else a
// NotReadyError. Callers must hold e.mu (either mode).
func (e *Entry) readyLocked() (*core.Incremental, error) {
	if e.state != StateReady || e.inc == nil {
		return nil, &NotReadyError{Name: e.name, State: e.state, Cause: e.err}
	}
	return e.inc, nil
}

// ready fetches the incremental handle under a brief read lock. All query
// paths go through it and then read epoch snapshots lock-free.
func (e *Entry) ready() (*core.Incremental, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.readyLocked()
}

// BC returns a copy of the current scores.
func (e *Entry) BC() ([]float64, error) {
	inc, err := e.ready()
	if err != nil {
		return nil, err
	}
	return inc.Snapshot().BC(), nil
}

// BCView returns the current epoch's score vector without copying. The
// epoch is immutable, so the slice is safe to read concurrently with
// mutations — but it must not be written.
func (e *Entry) BCView() ([]float64, error) {
	inc, err := e.ready()
	if err != nil {
		return nil, err
	}
	return inc.Snapshot().BCView(), nil
}

// VertexScore pairs a vertex with its score.
type VertexScore struct {
	Vertex graph.V `json:"vertex"`
	Score  float64 `json:"bc"`
}

// TopK returns the k highest-BC vertices (score desc, ties by vertex id) and
// the total vertex count. k <= 0 means all vertices. The returned slice is
// freshly allocated; the request path uses a rankScratch instead.
func (e *Entry) TopK(k int) ([]VertexScore, int, error) {
	bc, err := e.BCView()
	if err != nil {
		return nil, 0, err
	}
	var scr rankScratch
	top := scr.topK(bc, k)
	return append([]VertexScore(nil), top...), len(bc), nil
}

// rankScratch is reusable top-K ranking scratch. Handlers check one out of
// topKScratch per request and return it after the response is encoded, so a
// warm daemon ranks without allocating.
type rankScratch struct {
	all []VertexScore
}

// topKScratch pools rankScratch instances across requests (and the census
// path's redundancy sampling reuses the same pool through topKOf).
var topKScratch = sync.Pool{New: func() any { return new(rankScratch) }}

// compareVertexScore orders score desc, ties by vertex id. A named function
// (not a capturing closure) keeps the sort allocation-free.
func compareVertexScore(a, b VertexScore) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Vertex < b.Vertex:
		return -1
	case a.Vertex > b.Vertex:
		return 1
	}
	return 0
}

// topK ranks a score vector into the scratch's reusable buffer: score desc,
// ties by vertex id, k <= 0 means all vertices. The returned slice aliases
// the scratch and is valid until the next topK call on it.
func (scr *rankScratch) topK(scores []float64, k int) []VertexScore {
	if cap(scr.all) < len(scores) {
		scr.all = make([]VertexScore, len(scores))
	}
	all := scr.all[:len(scores)]
	for v, s := range scores {
		all[v] = VertexScore{Vertex: graph.V(v), Score: s}
	}
	slices.SortFunc(all, compareVertexScore)
	if k <= 0 || k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// topKOf is the convenience form over a pooled scratch for callers that can
// tolerate one copy (k results, not n).
func topKOf(scores []float64, k int) []VertexScore {
	scr := topKScratch.Get().(*rankScratch)
	top := append([]VertexScore(nil), scr.topK(scores, k)...)
	topKScratch.Put(scr)
	return top
}

// VertexInfo is the single-vertex view.
type VertexInfo struct {
	Vertex graph.V `json:"vertex"`
	Score  float64 `json:"bc"`
	// Rank is 1-based by descending score (ties share the better rank).
	Rank      int  `json:"rank"`
	OutDegree int  `json:"out_degree"`
	InDegree  *int `json:"in_degree,omitempty"` // directed graphs only
	// IsArticulation reports whether the vertex is a boundary articulation
	// point of the cached decomposition.
	IsArticulation bool `json:"is_articulation"`
}

// Vertex returns the per-vertex view of v. Score, rank and degrees all come
// from one epoch snapshot, so the view is internally consistent even if a
// mutation lands mid-request.
func (e *Entry) Vertex(v int) (VertexInfo, error) {
	inc, err := e.ready()
	if err != nil {
		return VertexInfo{}, err
	}
	snap := inc.Snapshot()
	g := snap.Graph
	if v < 0 || v >= g.NumVertices() {
		return VertexInfo{}, &VertexRangeError{Vertex: v, N: g.NumVertices()}
	}
	bc := snap.BCView()
	info := VertexInfo{
		Vertex:    graph.V(v),
		Score:     bc[v],
		OutDegree: g.OutDegree(graph.V(v)),
	}
	rank := 1
	for _, s := range bc {
		if s > info.Score {
			rank++
		}
	}
	info.Rank = rank
	if g.Directed() {
		in := g.InDegree(graph.V(v))
		info.InDegree = &in
	}
	for _, sg := range snap.Decomposition.Subgraphs {
		l := sg.LocalID(graph.V(v))
		if l >= 0 && sg.IsArt[l] {
			info.IsArticulation = true
			break
		}
	}
	return info, nil
}

// VertexRangeError reports a vertex id outside [0, N).
type VertexRangeError struct{ Vertex, N int }

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("server: vertex %d out of range [0,%d)", e.Vertex, e.N)
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
		r.notifyOverload("mutation")
		return MutationResult{}, &OverloadError{Op: "mutation", Name: e.name, RetryAfter: r.cfg.RetryAfter}
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
					r.notifyDurability("snapshot")
				} else {
					r.notifyDurability("error")
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
		batch := append(make([]*mutRequest, 0, r.cfg.MutationBatch), req)
	drain:
		for len(batch) < r.cfg.MutationBatch {
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
// the batch was not applied at all.
func (r *Registry) processBatch(e *Entry, batch []*mutRequest) {
	start := time.Now()
	ops := make([]core.EdgeOp, len(batch))
	for i, req := range batch {
		ops[i] = core.EdgeOp{Add: req.add, U: req.u, V: req.v}
	}
	if e.wal != nil {
		if err := e.wal.Append(ops); err != nil {
			derr := &DurabilityError{Name: e.name, Err: err}
			e.mu.Lock()
			if e.walErr == "" {
				e.walErr = derr.Error()
			}
			e.mu.Unlock()
			r.notifyDurability("error")
			for _, req := range batch {
				req.done <- mutOutcome{err: derr}
			}
			return
		}
		r.notifyDurability("append")
	}
	inc := e.inc // set before the worker starts, never reassigned
	before := inc.FullRebuilds()
	errs, err := inc.ApplyBatch(ops)
	if err != nil {
		for _, req := range batch {
			req.done <- mutOutcome{err: err}
		}
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
		r.notifyMutate(result)
		req.done <- mutOutcome{res: MutationResult{
			Result:  result,
			Applied: true,
			Verts:   snap.Graph.NumVertices(),
			Edges:   snap.Graph.NumEdges(),
			Batched: len(batch),
			TookMs:  tookMs,
		}}
	}
	r.notifyBatch(len(batch))
	if e.wal != nil && e.wal.records >= r.cfg.SnapshotEvery {
		if err := writeSnapshot(e.dir, snap.Graph); err != nil {
			e.mu.Lock()
			if e.walErr == "" {
				e.walErr = (&DurabilityError{Name: e.name, Err: err}).Error()
			}
			e.mu.Unlock()
			r.notifyDurability("error")
		} else if err := e.wal.Reset(); err == nil {
			r.notifyDurability("snapshot")
		} else {
			r.notifyDurability("error")
		}
	}
}

// Recover scans DataDir for durable graph directories and re-enqueues a
// build job for each: snapshot + WAL-tail replay reconstructs the final
// graph in memory, and the daemon pays one decomposition of that state
// instead of re-materializing the original source and re-absorbing the whole
// mutation history. It returns the names it enqueued. Call it once, before
// serving.
func (r *Registry) Recover() ([]string, error) {
	if r.cfg.DataDir == "" {
		return nil, nil
	}
	dirents, err := os.ReadDir(r.cfg.DataDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		name := de.Name()
		if !nameRE.MatchString(name) {
			continue
		}
		dir := filepath.Join(r.cfg.DataDir, name)
		st, err := loadDurable(dir)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// Not a durable graph directory (no meta/snapshot yet).
				continue
			}
			return names, err
		}
		e := &Entry{name: name, state: StateLoading, threshold: st.meta.Threshold}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return names, ErrShutdown
		}
		if _, ok := r.graphs[name]; ok {
			r.mu.Unlock()
			continue
		}
		select {
		case r.jobs <- buildJob{e: e, spec: LoadSpec{Name: name}, pre: st.g}:
			r.graphs[name] = e
			names = append(names, name)
			r.mu.Unlock()
		default:
			r.mu.Unlock()
			return names, &OverloadError{Op: "build", Name: name, RetryAfter: r.cfg.RetryAfter}
		}
		r.notifyDurability("recover")
	}
	return names, nil
}

// Census builds the stats view (the bcstats census) of the entry. Redundancy
// analysis is sampled above sampleCutoff vertices so the endpoint stays
// cheap on big graphs.
func (e *Entry) Census() (metrics.GraphCensus, error) {
	inc, err := e.ready()
	if err != nil {
		return metrics.GraphCensus{}, err
	}
	snap := inc.Snapshot()
	g := snap.Graph
	const sampleCutoff = 4096
	sampleK := 0
	if g.NumVertices() > sampleCutoff {
		sampleK = 64
	}
	return core.BuildCensus(e.name, g, snap.Decomposition, core.CensusOptions{
		Threshold:         e.threshold,
		RedundancySampleK: sampleK,
		Seed:              1,
	}), nil
}
