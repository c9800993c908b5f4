package core

import (
	"fmt"

	"repro/internal/decompose"
	"repro/internal/msbfs"
	"repro/internal/ws"
)

// RootEngine selects the sweep kernel for unweighted graphs. Both engines
// compute bit-identical scores (see internal/msbfs's package comment for why
// batching cannot change a bit), so the choice is purely a performance knob:
// the batched engine amortizes one CSR stream over up to 64 roots and wins on
// graphs whose sub-graphs keep many roots after γ elimination; the scalar
// engine has no per-batch overhead and wins on small or root-poor sub-graphs
// (the break-even gates below pick per unit automatically).
type RootEngine int

const (
	// EngineScalar is the default: one root per sweep, with the
	// direction-optimizing hybrid σ-BFS on large sub-graphs (Dijkstra on
	// weighted graphs).
	EngineScalar RootEngine = iota
	// EngineMSBFS batches up to ws.LaneWidth roots per traversal using the
	// bit-parallel multi-source kernel (internal/msbfs). The kernel is
	// BFS-based, so requesting it for a weighted graph is an error.
	EngineMSBFS
)

// String returns the engine name used in benchmark record keys and flags.
func (e RootEngine) String() string {
	switch e {
	case EngineScalar:
		return "scalar"
	case EngineMSBFS:
		return "msbfs"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseRootEngine maps an engine name ("scalar", "msbfs"; "" means scalar)
// to its RootEngine value.
func ParseRootEngine(name string) (RootEngine, error) {
	switch name {
	case "", "scalar":
		return EngineScalar, nil
	case "msbfs":
		return EngineMSBFS, nil
	default:
		return 0, fmt.Errorf("core: unknown root engine %q (want scalar or msbfs)", name)
	}
}

// validateEngine rejects engine requests no kernel can honour.
func validateEngine(weighted bool, re RootEngine) error {
	switch re {
	case EngineScalar:
	case EngineMSBFS:
		if weighted {
			return fmt.Errorf("core: root engine msbfs is BFS-based and cannot sweep a weighted graph (use scalar)")
		}
	default:
		return fmt.Errorf("core: unknown root engine %d", re)
	}
	return nil
}

// Break-even gates for the batched kernel, per (sub-graph, root-range) unit:
// below either bound the per-batch overhead (lane bookkeeping, the 64-slot
// stride on every σ/δ access) costs more than the shared CSR stream saves,
// and runBatch degrades to the scalar per-root loop. The fallback is
// unobservable in the output — both paths are bit-identical — so the bounds
// are tuned purely for speed. Measured on the power-law stand-ins (best-of-30
// single-thread sweeps): minVerts 128→64 doubled the wiki-talk win (its many
// 64-128-vertex sub-graphs batch profitably), while 32 and below regressed
// the fragmented email-euall stand-in; minLanes was flat across 4/8/16.
const (
	msbfsMinLanes = 8
	msbfsMinVerts = 64
)

// engine is one worker's sweep engine: pooled per-vertex scratch plus the
// kernel that fits the graph and the requested RootEngine — BFS (bfsRoot),
// bit-parallel batched BFS (internal/msbfs) or Dijkstra (dijkstraRoot). All
// three accumulate into ws.BC, so the unit scheduler, Incremental and
// RootSweep drive it the same way: ensure a sub-graph, run roots, drain
// ws.BC, release. The zero value is the scalar BFS engine.
type engine struct {
	ws *ws.Sweep
	// traversed is the paper's work metric, Σ out-degree over the vertices
	// each sweep visited. examined is what bfsRoot's forward passes really
	// scanned — frontier out-arcs in top-down levels, in-arcs of the
	// unvisited vertices plus the bitset words in bottom-up levels — and
	// bottomUpLevels how many levels went bottom-up. backScanned is the same
	// for its backward passes — out-arcs of the levels that pulled, in-arcs of
	// the levels that pushed — and pushedLevels how many pushed. Tests read
	// the four to pin the direction rule, nothing reports them.
	traversed, examined, bottomUpLevels int64
	backScanned, pushedLevels           int64

	weighted bool      // Dijkstra kernel; set from the graph, never by callers' options
	batched  bool      // RootEngine == EngineMSBFS
	hybrid   bool      // the ensured sub-graph takes direction-optimizing BFS sweeps
	force    direction // tests only; the zero value is the edge-volume rule

	kernel msbfs.Kernel // batched scratch
	pq     wheap        // Dijkstra heap
}

// newEngine builds the engine validateEngine approved for a graph.
func newEngine(weighted bool, opt Options) *engine {
	return &engine{weighted: weighted, batched: opt.RootEngine == EngineMSBFS}
}

// ensure prepares the engine for sweeps over sg: scratch checked out of the
// shared pool on first use and grown to sg's size (the clean-slot invariants
// — dist == -1 everywhere, BC zero, visited clear — are guaranteed by the
// pool and maintained by the kernels' sparse resets), and for BFS sweeps of
// sub-graphs worth the direction-optimizing treatment, the in-CSR the
// bottom-up levels scan (EnsureIn is once-guarded, so concurrent workers on
// one sub-graph are safe).
func (e *engine) ensure(sg *decompose.Subgraph) {
	if e.ws == nil {
		e.ws = sweepPool.Get(0)
	}
	n := sg.NumVerts()
	if e.weighted {
		e.ws.GrowWeighted(n)
		return
	}
	e.ws.Grow(n)
	e.hybrid = len(sg.Roots) >= hybridMinVerts && e.force != dirTopDown
	if e.hybrid {
		sg.EnsureIn()
	}
}

// release returns the scratch to the pool. The caller must have drained
// ws.BC (flush + zero) first; everything else is clean by the sparse-reset
// discipline.
func (e *engine) release() {
	if e.ws != nil {
		sweepPool.Put(e.ws)
		e.ws = nil
	}
}

// runRoots sweeps the given roots of the ensured sub-graph in order,
// accumulating into ws.BC.
func (e *engine) runRoots(sg *decompose.Subgraph, roots []int32, directed bool) {
	switch {
	case e.weighted:
		for _, s := range roots {
			e.dijkstraRoot(sg, s, directed)
		}
	case e.batched:
		e.runBatch(sg, roots, directed)
	default:
		for _, s := range roots {
			e.bfsRoot(sg, s, directed)
		}
	}
}

// runBatch feeds roots to the bit-parallel kernel a lane word at a time, or
// to the scalar loop below the break-even gates; a range may mix both freely
// since they share the accumulation buffer.
func (e *engine) runBatch(sg *decompose.Subgraph, roots []int32, directed bool) {
	if len(roots) < msbfsMinLanes || sg.NumVerts() < msbfsMinVerts {
		for _, s := range roots {
			e.bfsRoot(sg, s, directed)
		}
		return
	}
	for lo := 0; lo < len(roots); lo += ws.LaneWidth {
		hi := lo + ws.LaneWidth
		if hi > len(roots) {
			hi = len(roots)
		}
		e.traversed += e.kernel.Run(sg, roots[lo:hi], directed, e.ws)
	}
}

// dynamicSerialCutoff is the small-graph break-even guard: when the whole
// decomposition's estimated sweep cost Σ unitCost falls below it,
// ComputeDecomposed drains with one worker even if more were requested —
// below this much work, worker startup and the per-unit partial-array merges
// cost more than the parallelism returns (road-network inputs ran 1.5×
// slower at p=8 than p=1). The fallback is bit-invisible because it drains
// the SAME unit list serially: unit boundaries fix each sub-graph's
// partial-sum association, and the serial drain's in-order flushes replay
// the parallel drain's canonical merge addition for addition. A var, not a
// const, so tests can pin bit-equality across the boundary by moving it.
//
// The unit is roots × (vertices + arcs) of the swept graph. At 1<<20 an input
// the size of the benchmark's serve workload (2.07 M, the smallest of the
// four) keeps its workers, and the inputs just above the bound measure
// 1.8–1.9× faster with two workers than with one (EXPERIMENTS.md "Leaves
// leave the sweep", ladder).
var dynamicSerialCutoff int64 = 1 << 20

// drainWorkers applies the guard to a request for p workers.
func drainWorkers(d *decompose.Decomposition, p int) int {
	if p > 1 && totalSweepCost(d) < dynamicSerialCutoff {
		return 1
	}
	return p
}

// totalSweepCost estimates the decomposition's full sweep work under the
// scalar cost model (the guard is an absolute work bound, so it uses the
// engine-independent model).
func totalSweepCost(d *decompose.Decomposition) int64 {
	var total int64
	for _, sg := range d.Subgraphs {
		total += unitCost(sg, len(sg.Roots), false)
	}
	return total
}
