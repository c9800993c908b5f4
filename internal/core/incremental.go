package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/par"
)

// Incremental maintains exact BC scores across edge insertions and removals
// — the dynamic-graph direction the paper's decomposition naturally enables.
//
// BC is a sum of per-sub-graph contributions, and a sub-graph's contribution
// is a function of what its sweeps read (decompose.Subgraph.SweepEqual) and of
// the units its roots are cut into. Every batch of mutations therefore takes
// one path: build the next graph, decompose it from scratch — linear, and small
// beside one sweep — and sweep only the sub-graphs that have no equal, cut
// alike, in the previous epoch; the others take over that epoch's
// contribution. Reuse is decided by comparing inputs, never by reasoning about
// what an edit can move, so an edit inside a sub-graph costs O(|SGi|·|E_SGi|)
// plus the sub-graphs whose α/β it shifts, a block fusion or split costs the
// sub-graphs it makes, and every epoch's scores are bit-identical to Compute's
// and NewIncremental's on the same edge set. An epoch keeps no vertex index:
// which sub-graphs hold a vertex, to find a sub-graph's equal or to classify
// an edit, is its decomposition's SubgraphsOf.
//
// FullRebuilds and LocalUpdates describe the edits, not the work: a batch
// counts as a rebuild when some applied op's endpoints shared no sub-graph of
// the epoch it met (a block-fusing insertion, an edge at an isolated vertex),
// as local updates otherwise.
//
// # Epochs
//
// The graph, decomposition and scores live together in one immutable *epoch*
// behind an atomic pointer. Readers (BC, Graph, Decomposition, Snapshot)
// never lock: they load the pointer and get a consistent generation that
// will never change underneath them. Mutators serialize on an internal
// mutex, build the next epoch — which shares with the previous one only the
// contribution slices it reuses — and publish it with a single pointer
// store. That shrinks any outer write lock (e.g. bcd's per-entry RWMutex) to
// nothing: serving reads stay lock-free even while a mutation recomputes.
//
// Unweighted graphs only.
type Incremental struct {
	opt Options

	// mu serializes mutators. Readers never take it — they load cur.
	mu  sync.Mutex
	cur atomic.Pointer[epochState]

	fullRebuilds atomic.Int64
	localUpdates atomic.Int64
}

// epochState is one immutable generation: a graph, the decomposition built
// over it, the per-sub-graph BC contributions and their sum. Once published
// via Incremental.cur nothing in it is ever written again.
type epochState struct {
	seq     uint64
	g       *graph.Graph
	d       *decompose.Decomposition
	target  int64       // d's split target (splitTarget)
	contrib [][]float64 // per-sub-graph local BC contributions
	bc      []float64
}

// Snapshot is a consistent, immutable view of one epoch: the graph, the
// decomposition and the scores all belong to the same generation. Callers
// must treat every reachable structure as read-only.
type Snapshot struct {
	// Seq increments with every published epoch (mutation or rebuild); equal
	// Seq values denote the identical epoch, so caches keyed by Seq (e.g.
	// bcd's top-K ranking) invalidate exactly when the graph changes.
	Seq           uint64
	Graph         *graph.Graph
	Decomposition *decompose.Decomposition
	bc            []float64
}

// BC returns a copy of the snapshot's scores.
func (s Snapshot) BC() []float64 {
	out := make([]float64, len(s.bc))
	copy(out, s.bc)
	return out
}

// BCView returns the snapshot's scores without copying. The slice is
// immutable (it belongs to a published epoch); callers must not modify it.
func (s Snapshot) BCView() []float64 { return s.bc }

// NewIncremental decomposes g and computes the initial scores on every core,
// then trims the sweep pool to one workspace, which is what every later epoch
// sweeps on. g itself is the first epoch's graph, not a copy: a *graph.Graph
// is immutable. Threshold and DisableGamma apply; Workers, Scheduler,
// RootBudget and Breakdown have no meaning for an engine whose epochs are
// exact and untimed and pick their own workers, and setting any of them is an
// error. Every sweep takes the kernel the rule gives it, which is
// bit-invisible in the scores.
func NewIncremental(g *graph.Graph, opt Options) (*Incremental, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("core: incremental BC supports unweighted graphs only")
	}
	if opt.Workers != 0 || opt.Scheduler != SchedulerDynamic || opt.RootBudget != 0 || opt.Breakdown != nil {
		return nil, fmt.Errorf("core: incremental BC takes no Workers, Scheduler, RootBudget or Breakdown")
	}
	if err := validateEngine(false, opt.RootEngine); err != nil {
		return nil, err
	}
	inc := &Incremental{opt: opt}
	first, err := inc.build(nil, g)
	if err != nil {
		return nil, err
	}
	inc.publish(first)
	sweepPool.Trim(1)
	return inc, nil
}

// Snapshot returns the current epoch. Lock-free; the result stays internally
// consistent forever (later mutations publish new epochs instead of editing
// this one).
func (inc *Incremental) Snapshot() Snapshot {
	e := inc.cur.Load()
	return Snapshot{Seq: e.seq, Graph: e.g, Decomposition: e.d, bc: e.bc}
}

// BC returns a copy of the current scores.
func (inc *Incremental) BC() []float64 { return inc.Snapshot().BC() }

// Graph returns the current graph.
func (inc *Incremental) Graph() *graph.Graph { return inc.cur.Load().g }

// FullRebuilds counts the batches with an op whose endpoints shared no
// sub-graph (for tests and telemetry).
func (inc *Incremental) FullRebuilds() int { return int(inc.fullRebuilds.Load()) }

// LocalUpdates counts the mutations of every other batch (bcd reports both on
// its /metrics endpoint).
func (inc *Incremental) LocalUpdates() int { return int(inc.localUpdates.Load()) }

// publish makes next the current epoch. Directed graphs get their transpose
// materialized first so no reader ever triggers the lazy build concurrently.
func (inc *Incremental) publish(next *epochState) {
	if next.g.Directed() {
		next.g.EnsureTranspose()
	}
	inc.cur.Store(next)
}

// build makes the epoch after prev (nil for the first) over g: a fresh
// decomposition, prev's contribution for every sub-graph prev has an equal of
// and Compute's sweep (sweepGroups) for the rest, and the scores as their sum
// in sub-graph order. A first epoch drains on every core; a later one on one
// worker, which leaves the other cores to the readers (a parallel re-sweep cost
// bcd more in read latency than it saved). Caller holds mu (or is the
// constructor).
func (inc *Incremental) build(prev *epochState, g *graph.Graph) (*epochState, error) {
	d, err := decompose.Decompose(g, decompose.Options{
		Threshold:    inc.opt.Threshold,
		DisableGamma: inc.opt.DisableGamma,
	})
	if err != nil {
		return nil, err
	}
	next := &epochState{
		g:       g,
		d:       d,
		target:  splitTarget(d, 0),
		contrib: make([][]float64, len(d.Subgraphs)),
		bc:      make([]float64, g.NumVertices()),
	}
	workers := par.Workers(0)
	if prev != nil {
		next.seq = prev.seq + 1
		workers = 1
	}
	var groups []RootGroup
	for si, sg := range d.Subgraphs {
		if next.contrib[si] = prev.contribution(sg, chunkCount(sg, len(sg.Roots), next.target)); next.contrib[si] == nil {
			groups = append(groups, RootGroup{Subgraph: sg, Roots: sg.Roots})
		}
	}
	contribs, err := sweepGroups(d, groups, workers, inc.opt)
	if err != nil {
		return nil, err
	}
	for k, gr := range groups {
		next.contrib[gr.Subgraph.ID] = contribs[k]
	}
	for si, sg := range d.Subgraphs {
		flushLocal(next.bc, sg, next.contrib[si])
	}
	return next, nil
}

// contribution returns what the sub-graph of e equal to sg and cut into n units
// contributes, nil if e is nil or has none: the units set the sum's bits as
// much as the sub-graph does. An equal sub-graph has sg's vertices, so it is
// one of those e's decomposition says hold sg's first (SubgraphsOf).
func (e *epochState) contribution(sg *decompose.Subgraph, n int) []float64 {
	if e == nil {
		return nil
	}
	for _, si := range e.d.SubgraphsOf(sg.Verts[0]) {
		if old := e.d.Subgraphs[si]; old.SweepEqual(sg) && chunkCount(old, len(old.Roots), e.target) == n {
			return e.contrib[si]
		}
	}
	return nil
}

// commonSubgraph returns the index of the sub-graph of d holding both
// endpoints, or -1 (two sub-graphs never share more than one vertex, so the
// intersection has at most one element).
func commonSubgraph(d *decompose.Decomposition, u, v graph.V) int {
	for _, a := range d.SubgraphsOf(u) {
		if slices.Contains(d.SubgraphsOf(v), a) {
			return int(a)
		}
	}
	return -1
}

// EdgeOp is one staged mutation for ApplyBatch: Add true inserts the edge
// (U,V) — the arc U->V for directed graphs — and false removes it.
type EdgeOp struct {
	Add  bool
	U, V graph.V
}

// StageEdits judges ops in order against g: the one edit semantics of
// ApplyBatch and of bcd's write-ahead-log replay. Each op is judged against g
// with the batch's earlier ops staged in, so an insert-then-remove sequence
// behaves exactly as it would applied one at a time. An op that is a
// self-loop, has an endpoint outside g, inserts a present edge or removes an
// absent one is skipped and reported at its index in errs; the others all
// apply. add and del are the staged set, what g.Splice makes the edit's
// result from: the edges the ops leave present that g lacks and those they
// leave absent that g has, in no order (an insert-then-remove pair is in
// neither). It costs a row search per op.
func StageEdits(g *graph.Graph, ops []EdgeOp) (add, del []graph.Edge, errs []error) {
	n, directed := g.NumVertices(), g.Directed()
	type arcKey struct{ u, v graph.V }
	norm := func(u, v graph.V) arcKey {
		if !directed && u > v {
			u, v = v, u
		}
		return arcKey{u, v}
	}
	staged := make(map[arcKey]bool, len(ops)) // key -> present after staged ops
	present := func(u, v graph.V) bool {
		if p, ok := staged[norm(u, v)]; ok {
			return p
		}
		return g.HasArc(u, v)
	}
	errs = make([]error, len(ops))
	for i, op := range ops {
		switch {
		case op.U == op.V:
			errs[i] = fmt.Errorf("core: self-loop %d", op.U)
		case op.U < 0 || int(op.U) >= n || op.V < 0 || int(op.V) >= n:
			errs[i] = fmt.Errorf("core: vertex out of range")
		case op.Add && present(op.U, op.V):
			errs[i] = fmt.Errorf("core: edge %d->%d already present", op.U, op.V)
		case !op.Add && !present(op.U, op.V):
			errs[i] = fmt.Errorf("core: edge %d->%d absent", op.U, op.V)
		default:
			staged[norm(op.U, op.V)] = op.Add
		}
	}
	for k, p := range staged {
		if p == g.HasArc(k.u, k.v) {
			continue // an insert-then-remove pair, or a remove-then-put-back
		}
		if e := (graph.Edge{From: k.u, To: k.v}); p {
			add = append(add, e)
		} else {
			del = append(del, e)
		}
	}
	return add, del, errs
}

// InsertEdge adds the edge (u,v) — the arc u->v for directed graphs — and
// updates the scores.
func (inc *Incremental) InsertEdge(u, v graph.V) error {
	return inc.applyOne(EdgeOp{Add: true, U: u, V: v})
}

// RemoveEdge deletes the edge (u,v) — the arc u->v for directed graphs.
func (inc *Incremental) RemoveEdge(u, v graph.V) error {
	return inc.applyOne(EdgeOp{Add: false, U: u, V: v})
}

func (inc *Incremental) applyOne(op EdgeOp) error {
	errs, err := inc.ApplyBatch([]EdgeOp{op})
	if err != nil {
		return err
	}
	return errs[0]
}

// ApplyBatch applies ops in order and publishes at most ONE new epoch for
// the whole batch — a burst of N mutations costs one decomposition, one sweep
// of each sub-graph it changes and one pointer swap. Ops are staged by
// StageEdits: the ones it skips are reported per-index in the first return
// value, the remaining ops all apply. The second return value is a batch-level
// failure (a decomposition error, or graph.ErrPathCountOverflow when the next
// epoch's path counts overflow float64), after which no epoch was published.
func (inc *Incremental) ApplyBatch(ops []EdgeOp) ([]error, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	prev := inc.cur.Load()
	add, del, errs := StageEdits(prev.g, ops)
	// structural classifies the batch by what its edits are (see Incremental).
	valid, structural := 0, false
	for i, op := range ops {
		if errs[i] == nil {
			valid++
			structural = structural || commonSubgraph(prev.d, op.U, op.V) < 0
		}
	}
	if valid == 0 {
		return errs, nil
	}
	next, err := inc.build(prev, prev.g.Splice(add, del))
	if err != nil {
		return errs, err
	}
	if structural {
		inc.fullRebuilds.Add(1)
	} else {
		inc.localUpdates.Add(int64(valid))
	}
	inc.publish(next)
	return errs, nil
}
