package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/graph"
)

// Incremental maintains exact BC scores across edge insertions and removals
// — the dynamic-graph direction the paper's decomposition naturally enables.
//
// The key observation: every edge belongs to exactly one sub-graph (it lives
// in one biconnected block), and an intra-sub-graph change moves no vertex
// across the articulation-point frontier. The boundary APs stay cut
// vertices, α/β (outside-region counts) are untouched, and shortest paths
// between sub-graph vertices stay inside — so only the mutated sub-graph's
// contribution to BC changes, and the update costs O(|SGi|·|E_SGi|) instead
// of the full O(|V|·|E|) recomputation.
//
// Two situations force a full rebuild, counted in FullRebuilds: an inserted
// edge whose endpoints share no sub-graph (it fuses blocks along the tree
// path between them), and edges touching isolated vertices (which belong to
// no sub-graph). Removals never rebuild: deleting an edge can only split
// structure, which leaves the existing (now conservative) partition valid.
//
// # Epochs
//
// The graph, decomposition and scores live together in one immutable *epoch*
// behind an atomic pointer. Readers (BC, Graph, Decomposition, Snapshot)
// never lock: they load the pointer and get a consistent generation that
// will never change underneath them. Mutators serialize on an internal
// mutex, build the next epoch copy-on-write — sharing the CSRs of every
// sub-graph the mutation does not rewrite (decompose.CloneForMutation /
// CloneForAlphaBeta) — and publish it with a single pointer store. That
// shrinks any outer write lock (e.g. bcd's per-entry RWMutex) to nothing:
// serving reads stay lock-free even while a mutation recomputes.
//
// Unweighted graphs only.
type Incremental struct {
	opt      Options
	directed bool
	n        int

	// mu serializes mutators; it guards edges and splitSinceRebuild. Readers
	// never take it — they load cur.
	mu    sync.Mutex
	edges []graph.Edge

	// splitSinceRebuild records that an undirected removal may have split a
	// sub-graph internally since the last full rebuild. While set, insertions
	// must refresh α/β too: re-adding an edge can reconnect outside regions
	// that the split had cut off.
	splitSinceRebuild bool

	cur atomic.Pointer[epochState]

	fullRebuilds atomic.Int64
	localUpdates atomic.Int64
}

// epochState is one immutable generation: a graph, the decomposition built
// over it, the per-sub-graph BC contributions and the merged scores. Once
// published via Incremental.cur nothing in it is ever written again.
type epochState struct {
	seq     uint64
	g       *graph.Graph
	d       *decompose.Decomposition
	sgOf    [][]int32   // vertex -> sub-graph indices (partition-stable)
	contrib [][]float64 // per-sub-graph local BC contributions
	bc      []float64
}

// Snapshot is a consistent, immutable view of one epoch: the graph, the
// decomposition and the scores all belong to the same generation. Callers
// must treat every reachable structure as read-only.
type Snapshot struct {
	// Seq increments with every published epoch (mutation or rebuild); equal
	// Seq values denote the identical epoch, so caches keyed by Seq (e.g.
	// bcd's approx estimator) invalidate exactly when the graph changes.
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

// NewIncremental decomposes g and computes the initial scores. The Options'
// parallel settings are ignored (updates run serially); Threshold,
// DisableGamma and RootEngine apply — the engine choice is bit-invisible in
// the scores (see RootEngine), so mutations absorbed under either engine
// publish identical epochs.
func NewIncremental(g *graph.Graph, opt Options) (*Incremental, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("core: incremental BC supports unweighted graphs only")
	}
	if err := validateEngine(false, opt.RootEngine); err != nil {
		return nil, err
	}
	inc := &Incremental{
		opt:      opt,
		directed: g.Directed(),
		n:        g.NumVertices(),
		edges:    g.Edges(),
	}
	if err := inc.rebuild(); err != nil {
		return nil, err
	}
	inc.fullRebuilds.Store(0) // the initial build does not count
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

// Decomposition returns the current decomposition. After removals the
// partition can be conservative (a split block keeps its pre-split
// sub-graph); callers must treat it as read-only.
func (inc *Incremental) Decomposition() *decompose.Decomposition { return inc.cur.Load().d }

// FullRebuilds counts structural fallbacks (for tests and telemetry).
func (inc *Incremental) FullRebuilds() int { return int(inc.fullRebuilds.Load()) }

// LocalUpdates counts mutations absorbed without a rebuild (the incremental
// fast path bcd reports on its /metrics endpoint).
func (inc *Incremental) LocalUpdates() int { return int(inc.localUpdates.Load()) }

// publish makes next the current epoch. Directed graphs get their transpose
// materialized first so no reader ever triggers the lazy build concurrently.
func (inc *Incremental) publish(next *epochState) {
	if inc.directed {
		next.g.EnsureTranspose()
	}
	inc.cur.Store(next)
}

// rebuild decomposes from scratch and recomputes every contribution into a
// fresh epoch. Caller holds mu (or is the constructor).
func (inc *Incremental) rebuild() error {
	inc.fullRebuilds.Add(1)
	inc.splitSinceRebuild = false
	g := graph.NewFromEdges(inc.n, inc.edges, inc.directed)
	d, err := decompose.Decompose(g, decompose.Options{
		Threshold:    inc.opt.Threshold,
		DisableGamma: inc.opt.DisableGamma,
	})
	if err != nil {
		return err
	}
	next := &epochState{
		g:       g,
		d:       d,
		sgOf:    make([][]int32, inc.n),
		contrib: make([][]float64, len(d.Subgraphs)),
		bc:      make([]float64, inc.n),
	}
	if prev := inc.cur.Load(); prev != nil {
		next.seq = prev.seq + 1
	}
	for si, sg := range d.Subgraphs {
		for _, v := range sg.Verts {
			next.sgOf[v] = append(next.sgOf[v], int32(si))
		}
	}
	for si := range d.Subgraphs {
		if err := inc.recompute(next, si); err != nil {
			return err
		}
	}
	inc.publish(next)
	return nil
}

// recompute refreshes sub-graph si's contribution inside the epoch under
// construction and patches its scores. The sweep scratch is pooled; the
// stored contribution is a private copy (epochs share contrib arrays
// copy-on-write, so workspace memory must never leak into one).
func (inc *Incremental) recompute(next *epochState, si int) error {
	sg := next.d.Subgraphs[si]
	n := sg.NumVerts()
	e := newEngine(false, inc.opt)
	e.ensure(sg)
	e.runRoots(sg, sg.Roots, inc.directed)
	fresh := make([]float64, n)
	copy(fresh, e.ws.BC[:n])
	for l := range e.ws.BC[:n] {
		e.ws.BC[l] = 0
	}
	e.release()
	old := next.contrib[si]
	for l, v := range sg.Verts {
		if old != nil {
			next.bc[v] -= old[l]
		}
		next.bc[v] += fresh[l]
	}
	next.contrib[si] = fresh
	return nil
}

// commonSubgraph returns the sub-graph index containing both endpoints, or
// -1 (two sub-graphs never share more than one vertex, so the intersection
// has at most one element).
func commonSubgraph(sgOf [][]int32, u, v graph.V) int {
	for _, a := range sgOf[u] {
		for _, b := range sgOf[v] {
			if a == b {
				return int(a)
			}
		}
	}
	return -1
}

func (inc *Incremental) validate(u, v graph.V) error {
	if u == v {
		return fmt.Errorf("core: self-loop %d", u)
	}
	if u < 0 || int(u) >= inc.n || v < 0 || int(v) >= inc.n {
		return fmt.Errorf("core: vertex out of range")
	}
	return nil
}

// EdgeOp is one staged mutation for ApplyBatch: Add true inserts the edge
// (U,V) — the arc U->V for directed graphs — and false removes it.
type EdgeOp struct {
	Add  bool
	U, V graph.V
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
// the whole batch — a burst of N mutations costs one pointer swap and, when
// any op is structural, one full rebuild instead of N. Ops that fail
// validation (self-loop, out-of-range vertex, duplicate insert, absent
// removal — judged against the graph state with the batch's earlier ops
// staged in) are skipped and reported per-index in the first return value;
// the remaining ops all apply. The second return value is a batch-level
// failure (decomposition error), after which no epoch was published.
func (inc *Incremental) ApplyBatch(ops []EdgeOp) ([]error, error) {
	errs := make([]error, len(ops))
	inc.mu.Lock()
	defer inc.mu.Unlock()
	prev := inc.cur.Load()

	// Stage: validate each op against the current graph plus the batch's own
	// earlier deltas, so intra-batch insert-then-remove sequences behave
	// exactly as they would applied one at a time.
	type arcKey struct{ u, v graph.V }
	norm := func(u, v graph.V) arcKey {
		if !inc.directed && u > v {
			u, v = v, u
		}
		return arcKey{u, v}
	}
	staged := make(map[arcKey]bool, len(ops)) // key -> present after staged ops
	present := func(u, v graph.V) bool {
		if p, ok := staged[norm(u, v)]; ok {
			return p
		}
		return prev.g.HasArc(u, v)
	}
	valid := 0
	for i, op := range ops {
		if err := inc.validate(op.U, op.V); err != nil {
			errs[i] = err
			continue
		}
		if op.Add && present(op.U, op.V) {
			errs[i] = fmt.Errorf("core: edge %d->%d already present", op.U, op.V)
			continue
		}
		if !op.Add && !present(op.U, op.V) {
			errs[i] = fmt.Errorf("core: edge %d->%d absent", op.U, op.V)
			continue
		}
		staged[norm(op.U, op.V)] = op.Add
		valid++
	}
	if valid == 0 {
		return errs, nil
	}

	// Apply the valid ops to the edge list and classify the batch: every op
	// must stay inside one sub-graph for the local path; a cross-sub-graph
	// insertion (block fusion), an isolated-vertex attachment, or an endpoint
	// missing from its sub-graph forces the structural path — one rebuild for
	// the whole batch, since rebuild() re-decomposes inc.edges which already
	// carries every staged op.
	structural := false
	var locals []localOp
	for i, op := range ops {
		if errs[i] != nil {
			continue
		}
		if op.Add {
			inc.edges = append(inc.edges, graph.Edge{From: op.U, To: op.V})
		} else {
			inc.removeFromEdgeList(op.U, op.V)
		}
		if !op.Add && !inc.directed {
			// An undirected removal may split a block internally; later
			// insertions must refresh α/β until the next rebuild.
			inc.splitSinceRebuild = true
		}
		si := commonSubgraph(prev.sgOf, op.U, op.V)
		if si < 0 {
			structural = true
			continue
		}
		sg := prev.d.Subgraphs[si]
		lu, lv := sg.LocalID(op.U), sg.LocalID(op.V)
		if lu < 0 || lv < 0 {
			structural = true
			continue
		}
		locals = append(locals, localOp{si: si, add: op.Add, lu: lu, lv: lv, anyRemove: !op.Add})
	}
	if structural {
		return errs, inc.rebuild()
	}
	return errs, inc.applyLocalBatch(prev, locals)
}

// removeFromEdgeList drops the first edge matching (u,v) — either
// orientation for undirected graphs — from the mutable edge list.
func (inc *Incremental) removeFromEdgeList(u, v graph.V) {
	for i, e := range inc.edges {
		match := e.From == u && e.To == v
		if !inc.directed {
			match = match || (e.From == v && e.To == u)
		}
		if match {
			inc.edges = append(inc.edges[:i], inc.edges[i+1:]...)
			return
		}
	}
}

// localOp is one staged intra-sub-graph mutation in local-id space.
type localOp struct {
	si        int
	add       bool
	lu, lv    int32
	anyRemove bool
}

// applyLocalBatch performs a batch of intra-sub-graph mutations by building
// the next epoch copy-on-write: clone the decomposition shell, swap in
// cloned sub-graphs for everything the batch writes (each mutated
// sub-graph's CSR/γ/roots — and those of a sub-graph that holds an edited
// vertex folded, see below — plus the α/β arrays of whatever sub-graphs a
// refresh moves), patch the clones, recompute the affected contributions once
// and publish a single epoch. Everything else is shared between epochs.
//
// Other sub-graphs' α/β can shift even though the partition stays valid:
//
//   - Directed graphs: reachability between outside regions routes *through*
//     a mutated sub-graph, so any intra-sub-graph arc change can move α/β
//     elsewhere.
//   - Undirected removals: deleting a bridge inside the sub-graph (a
//     block-splitting removal) can cut a boundary AP of *another* sub-graph
//     off from the regions it used to reach — e.g. two triangles joined by a
//     bridge sub-graph: removing the bridge must drop the triangles' α from
//     3 to 0. Insertions after such a split can reconnect those regions.
//
// In all those cases, refresh α/β against the mutated sub-graphs (by
// composition over their present components, decompose.RecomputeAlphaBeta —
// it sees internal splits) and recompute every sub-graph whose values moved.
// The refresh is copy-on-change: it compares with the previous epoch's values
// before it writes and clones only the sub-graphs that differ. The cheap path
// — undirected insertions with no split possible — recomputes only the
// mutated sub-graphs. Recomputation always walks sub-graphs in index order so
// score accumulation stays deterministic.
func (inc *Incremental) applyLocalBatch(prev *epochState, ops []localOp) error {
	refreshAB := inc.directed || inc.splitSinceRebuild
	mutated := map[int]bool{}
	for _, op := range ops {
		mutated[op.si] = true
		if op.anyRemove {
			refreshAB = true
		}
		// After removals a vertex two sub-graphs share can be down to one
		// edge and γ-folded in the sub-graph that holds it. An edit at that
		// vertex in the other sub-graph ends what the fold rested on, so the
		// holder folds again (RefreshRoots) and is recomputed like a mutated
		// sub-graph, with no edge of its own changed.
		sg := prev.d.Subgraphs[op.si]
		for _, v := range [2]graph.V{sg.Verts[op.lu], sg.Verts[op.lv]} {
			for _, sj := range prev.sgOf[v] {
				if holder := prev.d.Subgraphs[sj]; int(sj) != op.si && holder.Folded(holder.LocalID(v)) {
					mutated[int(sj)] = true
				}
			}
		}
	}
	sis := make([]int, 0, len(mutated))
	for si := range mutated {
		sis = append(sis, si)
	}
	sort.Ints(sis)

	next := &epochState{
		seq:     prev.seq + 1,
		d:       prev.d.CloneShallow(),
		sgOf:    prev.sgOf, // the partition is unchanged
		contrib: append([][]float64(nil), prev.contrib...),
		bc:      append([]float64(nil), prev.bc...),
	}
	for _, si := range sis {
		next.d.Subgraphs[si] = prev.d.Subgraphs[si].CloneForMutation()
	}
	for _, op := range ops {
		if err := next.d.Subgraphs[op.si].MutateEdge(op.add, op.lu, op.lv, inc.directed); err != nil {
			return err
		}
	}
	next.g = graph.NewFromEdges(inc.n, inc.edges, inc.directed)
	next.d.SetGraph(next.g)
	for _, si := range sis {
		next.d.RefreshRoots(si, inc.opt.DisableGamma)
	}
	inc.localUpdates.Add(int64(len(ops)))
	if refreshAB {
		for _, sj := range next.d.RecomputeAlphaBeta(mutated) {
			if !mutated[sj] {
				sis = append(sis, sj)
			}
		}
		sort.Ints(sis)
	}
	for _, si := range sis {
		if err := inc.recompute(next, si); err != nil {
			return err
		}
	}
	inc.publish(next)
	return nil
}
