// Package ws provides the unified sweep-workspace arena shared by every
// betweenness-centrality engine in the repository: the core APGRE BFS,
// batched and Dijkstra kernels — which core's one unit drain runs for exact
// BC, Incremental's epochs, the approximate estimator's pivot groups and
// (through core's pool) the bcd serving path — and the Brandes baselines.
//
// A Sweep bundles all per-vertex scratch one root sweep needs — distances,
// the packed σ/δ records, a local BC accumulator, a visited bitset frontier
// and the BFS queue/order ring — sized by the largest sub-graph it has seen.
// A sub-graph's swept vertices are its local ids [0, len(Roots))
// (internal/decompose), so every array here is indexed by local id and sized
// by the swept graph, never by the γ-folded ids past it. The lane-widened
// layer (GrowLanes) adds what the bit-parallel multi-source kernel
// (internal/msbfs) batches 64 roots over — a lane-mask word pair and LaneWidth
// σ/δ record and BC slots per swept vertex, as large as the sub-graph a lane
// sweep last walked and never as large as the biggest sub-graph the workspace
// has seen (regrown with an eighth of headroom, within the caller's budget) —
// and the kernel's level lists, so the kernel itself keeps nothing between
// batches. A Pool hands Sweeps out to
// workers (Get) and takes them back (Put), so steady-state computation
// performs zero per-sweep heap allocation: the arena grows to the high-water
// mark once and is reused by every engine, request and worker thereafter.
// Trim drops the free sweeps past the largest few: core.Incremental keeps one
// after its first epoch, as every later epoch sweeps on one worker.
// The tape (GrowTape) is where a forward BFS writes down the DAG arcs it finds
// for its own backward pass (core.bfsRoot), sized like the lanes by the
// sub-graph that uses it and not by its capacity — one slot per swept arc, reserved
// whole and touched only as far as a root's DAG reaches. Bytes says what all of
// it weighs.
//
// # Clean-slot invariants and lazy reset
//
// Instead of zeroing O(n) state per checkout, the arena relies on epoch-style
// lazy clearing: every Sweep in the pool satisfies the clean-slot invariants
//
//	Dist[v]  == -1     FDist[v] == -1     BC[v] == 0
//	Done[v]  == false  Visited   all clear
//
// and every engine restores them with a dirty-list sparse reset — walking
// only the vertices its own sweep touched (the Order ring is exactly that
// dirty list), which is O(touched), not O(n). Rec carries no invariant: the
// forward sweeps assign a vertex's σ when they discover it, and the
// four-dependency backward step either assigns a visited vertex's δ fields
// once (a level that pulls from its successors) or zeroes them and then
// accumulates into them (a level its successors push to, core.bfsRoot) —
// nothing is read that the same root did not write first, so records never
// need clearing between roots. (An engine that accumulates without zeroing
// first — internal/brandes sums σ and its single δ in place — keeps a private
// Pool and zeroes what it dirtied; fresh records are zero.) Levels, Tape and
// TapePos are plain scratch too: a root's backward pass reads only what its
// own forward pass wrote there, and where it reads the tape it does not read
// Dist, whose invariant is the forward pass's "not discovered yet" test and
// nothing more. Grow preserves the invariants for new slots, so a freshly
// grown region is indistinguishable from a sparsely reset one — which is why
// pooling is bit-neutral: an engine reading a clean slot cannot tell whether
// the value came from make(), from a sparse reset, or from another engine's
// reset.
//
// # Layout
//
// σ and the three stored dependencies of a vertex sit in one 32-byte Record,
// half a cache line: the backward step reads all of them for every DAG arc it
// pulls over, and four parallel arrays cost four cache misses per arc once a
// sub-graph's state outgrows the L2. Dist stays its own dense int32 array
// because it is read for every arc, DAG or not, and the record only for the
// DAG arcs that pass the level test — folding it in would leave 1.6 distances
// per cache line, not 16, on the commoner access. The lane kernel keeps the
// same Record per (vertex, lane) slot, LaneWidth of them per swept vertex, for
// the same reason: per (arc, lane) its backward step reads σ and the three δ
// of the successor's slot, one half line where four parallel arrays touched
// four lines. Which vertices share a line is not decided here: slots are
// indexed by a sub-graph's local ids, and internal/decompose chooses their
// order for exactly these arrays (the swept vertices first; among them hubs
// first, then breadth-first, where the input's own order is no layout).
package ws

import (
	"slices"
	"sync"
	"unsafe"

	"repro/internal/bitset"
)

// Record is one vertex's path count and stored dependencies (the fourth,
// δ_o2i, is β(s)·δ_i2i and never stored). Engines with a single dependency
// (internal/brandes) use Di2i as their δ.
type Record struct {
	Sigma, Di2i, Di2o, Do2o float64
}

// Level is one BFS level as the forward pass leaves it for the backward pass:
// for a direction-optimizing sweep where the level starts in Order, and
// whether it was discovered bottom-up — in ascending vertex id, the order the
// backward push relies on (core.bfsRoot); for a lane batch where the level
// starts in LaneVerts (internal/msbfs).
type Level struct {
	Start    int32
	BottomUp bool
}

// LaneWidth is the root-batch width of the lane-parallel (MS-BFS) arrays:
// one machine word of lanes, each lane tracking one root of a batched
// multi-source sweep.
const LaneWidth = 64

// Sweep is one checkout of per-vertex sweep scratch. Field slices other than
// the tape and the Lane* ones have the sweep's capacity as their length — the
// largest swept graph it was grown to (Visited has at least that many bits);
// callers index them by local vertex id. See the package comment for which
// fields carry clean-slot invariants.
type Sweep struct {
	capV     int
	weighted bool
	held     Bytes // Bytes() at the last Put: this sweep's share of its pool's total
	Dist     []int32
	Rec      []Record
	BC       []float64
	Order    []int32 // BFS queue / settled-order ring / a lane batch's touched vertices; doubles as the dirty list
	Levels   []Level // level table of the current sweep or lane batch; appended to, capacity kept across roots
	Visited  *bitset.Bitset
	FDist    []float64 // weighted distances; allocated by GrowWeighted
	Done     []bool    // Dijkstra settled flags; allocated by GrowWeighted

	// Tape holds the current root's DAG arcs as the forward pass found them:
	// Tape[TapePos[i]:TapePos[i+1]] are the successors of Order[i], in the
	// order of its out-row; positions are int64 like a CSR's offsets. Sized by
	// GrowTape for the sub-graph that uses them, independent of the capacity, and kept
	// across roots.
	Tape    []int32
	TapePos []int64

	// Lane-parallel scratch for the MS-BFS batched kernel (allocated by
	// GrowLanes, independent of the capacity): LaneSeen and LaneFront hold one
	// lane-mask word per swept vertex, and LaneRec and LaneBC LaneWidth slots
	// per swept vertex (slot v*LaneWidth+l belongs to root lane l of local id
	// v). LaneRec is the scalar kernel's record per slot, for the same reason
	// Rec is one: the backward step reads σ and the three δ of a (vertex,
	// lane) together. LaneBC stays apart because the fold reads it, and
	// nothing else, vertex by vertex. LaneVerts and LaneMasks are a batch's
	// levels back to back — the vertices some lane first reached at each
	// depth, in discovery order, with their lane masks — and Levels says where
	// each depth starts. Invariants: every LaneRec[i].Sigma, LaneSeen and
	// LaneFront are zero in the pool; the δ fields and LaneBC carry no
	// invariant — the batched backward step assigns every visited (vertex,
	// lane) slot exactly once per batch and the fold reads only visited slots
	// — and the level lists are plain scratch.
	LaneRec   []Record
	LaneBC    []float64
	LaneSeen  []uint64
	LaneFront []uint64
	LaneVerts []int32
	LaneMasks []uint64
}

// LaneBytesPerVert is the lane state GrowLanes holds per swept vertex: a
// Record and a staged BC slot for each of the LaneWidth lanes (the two mask
// words and the level lists come on top). Bytes counts the lane layer by it,
// and the kernel rule's budget (internal/core) is read in it.
const LaneBytesPerVert = LaneWidth * (int(unsafe.Sizeof(Record{})) + 8)

// Grow sizes the sweep for n local vertices, preserving every clean-slot
// invariant. Existing clean arrays hold only invariant values, so growth
// replaces them wholesale instead of copying — O(new capacity), paid only
// when the high-water mark rises.
func (s *Sweep) Grow(n int) {
	if s.capV >= n {
		return
	}
	s.capV = n
	s.Dist = make([]int32, n)
	for i := range s.Dist {
		s.Dist[i] = -1
	}
	s.Rec = make([]Record, n)
	s.BC = make([]float64, n)
	s.Visited = bitset.New(n)
	if s.weighted {
		s.growWeighted()
	}
}

// GrowWeighted is Grow plus the weighted-engine arrays (FDist, Done). Once
// called, later Grow calls keep the weighted arrays sized too.
func (s *Sweep) GrowWeighted(n int) {
	s.Grow(n)
	if !s.weighted || len(s.FDist) < s.capV {
		s.weighted = true
		s.growWeighted()
	}
}

func (s *Sweep) growWeighted() {
	s.FDist = make([]float64, s.capV)
	for i := range s.FDist {
		s.FDist[i] = -1
	}
	s.Done = make([]bool, s.capV)
}

// GrowLanes is Grow plus the lane-parallel MS-BFS arrays for a swept graph of
// swept vertices: two mask words and LaneWidth slots per swept vertex —
// LaneBytesPerVert of slots, whatever the capacity is. A first allocation is
// exact; a regrowth takes an eighth more than it held, cut to budget bytes but
// never below swept (a forced run past the budget is exact). Fresh allocations
// are zero, which is exactly the lane invariants, so — as with Grow — a grown
// region is indistinguishable from a sparsely reset one. The level lists grow
// as a batch appends to them.
func (s *Sweep) GrowLanes(swept, budget int) {
	s.Grow(swept)
	if held := len(s.LaneRec) / LaneWidth; held < swept {
		if held > 0 {
			swept = max(swept, min(held+held/8, budget/LaneBytesPerVert))
		}
		s.LaneRec = make([]Record, swept*LaneWidth)
		s.LaneBC = make([]float64, swept*LaneWidth)
		s.LaneSeen = make([]uint64, swept)
		s.LaneFront = make([]uint64, swept)
	}
}

// GrowTape sizes the tape for a sub-graph of arcs swept arcs over swept
// vertices: a root's DAG is a subset of the arcs, and Order never holds more
// than the swept vertices. Contents are scratch, so growth does not copy.
func (s *Sweep) GrowTape(arcs, swept int) {
	if len(s.Tape) < arcs {
		s.Tape = make([]int32, arcs)
	}
	if len(s.TapePos) < swept+1 {
		s.TapePos = make([]int64, swept+1)
	}
}

// Bytes is what a sweep's arrays weigh, by layer.
type Bytes struct {
	Base  int64 // what Grow and GrowWeighted size by the capacity, plus the Order and Levels rings
	Lanes int64 // what GrowLanes sizes by a lane-swept sub-graph, plus the lane level lists
	Tape  int64 // what GrowTape sizes by a sub-graph swept one root at a time
}

// Bytes reports the memory the sweep holds.
func (s *Sweep) Bytes() Bytes {
	b := Bytes{
		Base: int64(4*len(s.Dist)+8*len(s.BC)+4*cap(s.Order)+8*len(s.FDist)+len(s.Done)) +
			int64(unsafe.Sizeof(Record{}))*int64(len(s.Rec)) + int64(unsafe.Sizeof(Level{}))*int64(cap(s.Levels)),
		Lanes: int64(LaneBytesPerVert*(len(s.LaneRec)/LaneWidth) + 8*(len(s.LaneSeen)+len(s.LaneFront)) +
			4*cap(s.LaneVerts) + 8*cap(s.LaneMasks)),
		Tape: int64(4*len(s.Tape) + 8*len(s.TapePos)),
	}
	if s.Visited != nil {
		b.Base += int64((s.Visited.Len() + 63) >> 6 << 3)
	}
	return b
}

// Pool is a concurrency-safe free list of Sweeps. The zero value is ready to
// use. Get prefers the largest free sweep so small requests ride on already-
// grown arenas instead of growing small ones; the pool therefore converges
// on a few sweeps sized by the largest sub-graph, checked out per worker.
type Pool struct {
	mu    sync.Mutex
	free  []*Sweep
	size  int // sweeps ever created and not discarded
	inUse int
	bytes Bytes // Σ Sweep.held over the sweeps created
}

// Get checks a sweep sized for n vertices out of the pool, creating one only
// when the free list is empty. The caller has exclusive use until Put.
func (p *Pool) Get(n int) *Sweep {
	p.mu.Lock()
	var s *Sweep
	if len(p.free) > 0 {
		best := 0
		for i := 1; i < len(p.free); i++ {
			if p.free[i].capV > p.free[best].capV {
				best = i
			}
		}
		s = p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	} else {
		s = &Sweep{}
		p.size++
	}
	p.inUse++
	p.mu.Unlock()
	s.Grow(n)
	return s
}

// Put returns a sweep to the pool. The caller must have restored the
// clean-slot invariants (the engines' dirty-list resets do) — the pool does
// not scrub, that is the whole point. Put(nil) is a no-op.
func (p *Pool) Put(s *Sweep) {
	if s == nil {
		return
	}
	b := s.Bytes()
	p.mu.Lock()
	p.free = append(p.free, s)
	p.inUse--
	p.bytes.Base += b.Base - s.held.Base
	p.bytes.Lanes += b.Lanes - s.held.Lanes
	p.bytes.Tape += b.Tape - s.held.Tape
	s.held = b
	p.mu.Unlock()
}

// Trim discards the free sweeps beyond the keep (≥ 0) largest, for the
// collector to reclaim, and takes them out of the gauges. Checked-out sweeps
// are not the pool's to drop: they come back by Put, whatever Trim did.
func (p *Pool) Trim(keep int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) <= keep {
		return
	}
	slices.SortFunc(p.free, func(a, b *Sweep) int { return b.capV - a.capV })
	for _, s := range p.free[keep:] {
		p.bytes.Base -= s.held.Base
		p.bytes.Lanes -= s.held.Lanes
		p.bytes.Tape -= s.held.Tape
	}
	p.size -= len(p.free) - keep
	clear(p.free[keep:])
	p.free = p.free[:keep]
}

// Stats reports the pool gauges: size is the number of sweeps the pool has
// created (free + checked out), inUse how many are currently checked out.
func (p *Pool) Stats() (size, inUse int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size, p.inUse
}

// Bytes reports what the pool's sweeps hold, free and checked out, each as of
// its last Put: a sweep grows while a worker owns it, so the total lags a
// running sweep's growth and is exact whenever the pool is idle.
func (p *Pool) Bytes() Bytes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}
