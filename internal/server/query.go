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

// rankScratch is reusable top-K ranking scratch. A ranking checks one out of
// topKScratch and returns it once the result is copied out, so a warm daemon
// ranks without allocating scratch.
type rankScratch struct {
	all []VertexScore
}

// topKScratch pools rankScratch instances across TopKCoalesced's cache
// misses.
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

// Query coalescing: identical top-K queries against the same published epoch
// share one ranking pass.
//
// The cache key is (epoch sequence number, k). The epoch seq is perfect for
// this: core.Incremental bumps it exactly once per published epoch, so a
// cached ranking can never serve stale scores — the first query after a
// mutation lands sees a new seq and recomputes. Within one epoch, the first
// request for a given k ranks (singleflight); concurrent duplicates block on
// its done channel instead of redoing the O(n log n) sort, and later
// requests at the same epoch hit the stored result outright. That makes the
// hot cached-read path O(1) and allocation-free, which is what keeps read
// p99 flat while the mutation worker is busy rebuilding.

// topkCoalesceCap bounds the per-epoch result map so a client probing many
// distinct k values cannot grow it without bound; overflow queries just rank
// uncached.
const topkCoalesceCap = 64

// topkCall is one in-flight or completed ranking; done closes when top/n are
// set. The result slice is immutable after close(done).
type topkCall struct {
	done chan struct{}
	top  []VertexScore
	n    int
}

// topkCache is the per-entry epoch-keyed singleflight table. Zero value is
// ready to use.
type topkCache struct {
	mu    sync.Mutex
	seq   uint64
	calls map[int]*topkCall
}

// TopKCoalesced returns the k highest-BC vertices and the vertex count,
// sharing work with concurrent and recent identical queries on the same
// epoch. hit reports whether the ranking was reused (for the cache metric).
// The returned slice is shared and must not be mutated.
func (e *Entry) TopKCoalesced(k int) (top []VertexScore, n int, hit bool, err error) {
	inc, err := e.ready()
	if err != nil {
		return nil, 0, false, err
	}
	snap := inc.Snapshot()
	c := &e.topk
	c.mu.Lock()
	if c.calls == nil || snap.Seq > c.seq {
		c.seq = snap.Seq
		c.calls = make(map[int]*topkCall, 8)
	}
	var call *topkCall
	if snap.Seq == c.seq {
		if cached, ok := c.calls[k]; ok {
			c.mu.Unlock()
			<-cached.done
			return cached.top, cached.n, true, nil
		}
		if len(c.calls) < topkCoalesceCap {
			call = &topkCall{done: make(chan struct{})}
			c.calls[k] = call
		}
	}
	// snap.Seq < c.seq means a publish raced us after we took the snapshot:
	// rank this one uncached rather than rolling the cache backwards.
	c.mu.Unlock()

	// Rank against this call's snapshot. A newer epoch may publish while we
	// sort; that only means the next query at the new seq recomputes — the
	// stored result stays pinned to the seq it was keyed under.
	bc := snap.BCView()
	scr := topKScratch.Get().(*rankScratch)
	ranked := append([]VertexScore(nil), scr.topK(bc, k)...)
	topKScratch.Put(scr)
	if call != nil {
		call.top = ranked
		call.n = len(bc)
		close(call.done)
	}
	return ranked, len(bc), false, nil
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
