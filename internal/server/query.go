package server

import (
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

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

// Name returns the registry key.
func (e *Entry) Name() string { return e.name }

// Info snapshots the entry. Graph-shaped fields come from one epoch
// snapshot, so they are mutually consistent even while mutations land.
func (e *Entry) Info() EntryInfo {
	e.mu.RLock()
	info := EntryInfo{
		Name:      e.name,
		State:     e.state,
		Threshold: e.threshold,
	}
	if e.err != nil {
		info.Error = e.err.Error()
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

// ranking is one epoch's vertices in rank order: score desc, ties by vertex
// id. all is written once, under once, and is immutable after.
type ranking struct {
	seq  uint64
	once sync.Once
	all  []VertexScore
}

// rankEpoch returns epoch seq's ranking of its scores bc, and whether an
// earlier read of the epoch had built it.
//
// An entry keeps one ranking, its newest ranked epoch's, in e.rank. The first
// top-K read of an epoch sorts all n vertices once; concurrent readers of the
// epoch wait on that sort, and every later read, for any K, slices it. The
// epoch seq is the right key: core.Incremental bumps it exactly once per
// published epoch, so the first read after a mutation lands sees a new seq
// and ranks again.
func (e *Entry) rankEpoch(seq uint64, bc []float64) (all []VertexScore, hit bool) {
	r := e.slot(e.rank.Load(), seq)
	hit = true
	r.once.Do(func() {
		hit = false
		ranked := make([]VertexScore, len(bc))
		for v, s := range bc {
			ranked[v] = VertexScore{Vertex: graph.V(v), Score: s}
		}
		slices.SortFunc(ranked, compareVertexScore)
		r.all = ranked
	})
	return r.all, hit
}

// slot returns the ranking a reader of epoch seq uses, given seen, e.rank as
// the reader loaded it. The slot only rolls forward: a seq newer than seen's
// replaces seen by CompareAndSwap, so that an epoch stored since the load is
// never replaced by an older one, and a reader whose epoch a newer one has
// overtaken gets a ranking of its own that nothing stores.
func (e *Entry) slot(seen *ranking, seq uint64) *ranking {
	for seen == nil || seen.seq < seq {
		next := &ranking{seq: seq}
		if e.rank.CompareAndSwap(seen, next) {
			return next
		}
		seen = e.rank.Load()
	}
	if seen.seq == seq {
		return seen
	}
	return &ranking{seq: seq}
}

// TopKCoalesced returns the k highest-BC vertices (k <= 0: all of them) and
// the vertex count, from the current epoch's ranking. hit reports whether an
// earlier read had built that ranking (for the cache metric). The returned
// slice is shared and must not be mutated.
func (e *Entry) TopKCoalesced(k int) (top []VertexScore, n int, hit bool, err error) {
	inc, err := e.ready()
	if err != nil {
		return nil, 0, false, err
	}
	snap := inc.Snapshot()
	all, hit := e.rankEpoch(snap.Seq, snap.BCView())
	if k <= 0 || k > len(all) {
		k = len(all)
	}
	return all[:k:k], len(all), hit, nil
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
	// point of the epoch's decomposition: held by more than one sub-graph.
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
	info.IsArticulation = len(snap.Decomposition.SubgraphsOf(graph.V(v))) > 1
	return info, nil
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
	return core.BuildCensus(e.name, g, snap.Decomposition, core.CensusOptions{RedundancySampleK: sampleK}), nil
}
