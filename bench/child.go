package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bcc"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/profiling"
)

// Every timed repetition runs in a fresh child process: the bench binary
// re-executes itself with `-child SPEC.json`. Users run `bc` and `bcd` as
// fresh processes; VmHWM of the child is clean of generator and oracle
// memory; and in-process repetitions are not repeatable on this VM — the
// same decompose.Decompose on the same mmap'd 4M-arc graph took 1.4–4.8 s
// across four in-process reps (first-touch page faults on fresh heap
// dominate), while five fresh-process reps of the whole pipeline agreed
// within ±7 %.

// spawnEnv carries the parent's wall-clock time just before it started the
// child, so the child's wall_s counts exec and runtime start-up like a user's
// stopwatch would.
const spawnEnv = "BENCH_SPAWN_UNIX_NS"

// childSpec is what the parent hands a measuring child.
type childSpec struct {
	Kind string // "batch" | "session" | "phases"
	Run  string // identifies this child's spans
	// Graph is the staged .bin file; the child sees nothing else of the
	// workload (not the seed, not the generator).
	Graph      string
	Loader     string // batch: "file" | "mmap" | "stream"
	Workers    int
	RootBudget int
	Trace      bool // record spans and the allocation counters
	Probes     bool // batch: run the per-layer probes after the timed pipeline
	Corrupt    bool // self-test: perturb one score so verification must fail
	Out        string
	Serve      *serveSpec `json:",omitempty"`
}

// childResult is what the child writes to Out+".json"; its score vector goes
// to Out+".f64" as raw little-endian float64.
type childResult struct {
	Values map[string]float64 `json:"values"`
	Spans  []span             `json:"spans,omitempty"`
	// Results lists, for serve children, how the server reported each acked
	// mutation ("local" | "rebuild"), in script order.
	Results []string `json:"results,omitempty"`
	// Notes flags numbers that rest on fewer samples than the reporting rule
	// asks for.
	Notes []string `json:"notes,omitempty"`
	// recovered is the phases child's second vector (recoveredExt), filled in
	// by the parent when it collects the child's files.
	recovered []float64
}

// childMain runs one measuring child and returns its exit code.
func childMain(specPath string) int {
	if err := runChild(specPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

func runChild(specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("bad spec: %w", err)
	}
	spawned := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64); err == nil {
		spawned = time.Unix(0, ns)
	}
	var tr *tracer
	if spec.Trace {
		tr = newTracer(spec.Run)
	}
	var res childResult
	var scores []float64
	switch spec.Kind {
	case "batch":
		// Writes its scores itself, inside the timed run.
		res, err = batchChild(spec, spawned, tr)
	case "session":
		res, scores, err = sessionChild(spec, spawned, tr)
	case "phases":
		res, scores, err = phasesChild(spec)
	default:
		err = fmt.Errorf("unknown child kind %q", spec.Kind)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		res.Spans = tr.spans
	}
	if scores != nil {
		if err := writeScores(spec.Out+".f64", scores, spec.Corrupt); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.Out+".json", out, 0o644)
}

// loadGraph opens the staged file the way the spec says. The returned func
// releases a mapping, if any.
func loadGraph(path, loader string) (*graph.Graph, func(), error) {
	switch loader {
	case "file":
		g, err := graphio.LoadFile(path, "", false)
		return g, func() {}, err
	case "mmap":
		m, err := graphio.MmapGraph(path)
		if err != nil {
			return nil, nil, err
		}
		return m.Graph, func() { _ = m.Close() }, nil // read-only mapping: nothing to lose on a failed unmap
	case "stream":
		g, err := readBinaryCSR(path)
		return g, func() {}, err
	}
	return nil, nil, fmt.Errorf("unknown loader %q", loader)
}

func readBinaryCSR(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadBinaryCSR(bufio.NewReaderSize(f, 1<<20))
}

// batchChild is the batch workloads' unit operation, what `bc -in FILE` does:
// cold file → CSR → decomposition → sweeps → score vector on disk, with
// default core.Options (dynamic scheduler, scalar engine). Each layer is
// timed from outside, around its public entry point.
func batchChild(spec childSpec, spawned time.Time, tr *tracer) (childResult, error) {
	v := map[string]float64{}
	run := tr.begin("run")
	runStart := time.Now()

	s := tr.begin("graphio.load")
	t := time.Now()
	g, release, err := loadGraph(spec.Graph, spec.Loader)
	if err != nil {
		return childResult{}, fmt.Errorf("load %s: %w", spec.Graph, err)
	}
	defer release()
	v["graphio.load_s"] = time.Since(t).Seconds()
	tr.end(s)

	var tm decompose.Timings
	s = tr.begin("decompose.decompose")
	t = time.Now()
	d, err := decompose.Decompose(g, decompose.Options{Workers: spec.Workers, Timings: &tm})
	if err != nil {
		return childResult{}, fmt.Errorf("decompose: %w", err)
	}
	v["decompose.total_s"] = time.Since(t).Seconds()
	tr.end(s)
	tr.phases(s, []string{"decompose.partition", "decompose.alphabeta"}, []time.Duration{tm.Partition, tm.AlphaBeta})
	v["decompose.partition_s"] = tm.Partition.Seconds()
	v["decompose.alphabeta_s"] = tm.AlphaBeta.Seconds()

	var bd core.Breakdown
	var before, after runtime.MemStats
	if spec.Trace {
		runtime.ReadMemStats(&before)
	}
	s = tr.begin("core.compute_decomposed")
	t = time.Now()
	opt := core.Options{Workers: spec.Workers, RootBudget: spec.RootBudget, Breakdown: &bd}
	scores, err := core.ComputeDecomposed(d, opt)
	if err != nil {
		return childResult{}, fmt.Errorf("compute: %w", err)
	}
	v["core.sweep_s"] = time.Since(t).Seconds()
	tr.end(s)
	if spec.Trace {
		runtime.ReadMemStats(&after)
		v["ws.mallocs_per_root"] = float64(after.Mallocs-before.Mallocs) / float64(max(bd.Roots, 1))
		v["ws.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		size, _ := core.SweepPoolStats()
		v["ws.pool_size"] = float64(size)
	}

	s = tr.begin("bench.write_scores")
	if err := writeScores(spec.Out+".f64", scores, spec.Corrupt); err != nil {
		return childResult{}, err
	}
	tr.end(s)
	tr.end(run)
	v["run_s"] = time.Since(runStart).Seconds()
	v["wall_s"] = time.Since(spawned).Seconds()
	v["peak_rss_mb"] = float64(profiling.PeakRSSBytes()) / (1 << 20)

	v["core.top_bc_s"] = bd.TopBC.Seconds()
	v["core.rest_bc_s"] = bd.RestBC.Seconds()
	v["core.traversed_arcs"] = float64(bd.TraversedArcs)
	v["core.roots"] = float64(bd.Roots)
	v["graph.verts"] = float64(g.NumVertices())
	v["graph.arcs"] = float64(g.NumArcs())
	v["decompose.subgraphs"] = float64(len(d.Subgraphs))
	v["decompose.boundary_aps"] = float64(d.NumArticulation)
	v["decompose.roots"] = float64(d.TotalRoots())
	if d.TopIndex >= 0 {
		v["decompose.top_vert_frac"] = float64(d.Subgraphs[d.TopIndex].NumVerts()) / float64(max(g.NumVertices(), 1))
	}

	if spec.Probes {
		p := tr.begin("probes")
		if err := batchProbes(spec, g, d, scores, tr, v); err != nil {
			return childResult{}, err
		}
		tr.end(p)
	}
	return childResult{Values: v}, nil
}

// batchProbes measures what the default pipeline does not exercise, after the
// timed run so none of it is inside wall_s: the standalone BCC pass, the
// legacy static scheduler, the bit-parallel engine (last, because its lane
// arrays raise VmHWM for good) and the copying loader.
func batchProbes(spec childSpec, g *graph.Graph, d *decompose.Decomposition, scalar []float64, tr *tracer, v map[string]float64) error {
	s := tr.begin("bcc.find")
	t := time.Now()
	blocks := bcc.Find(g)
	v["bcc.find_s"] = time.Since(t).Seconds()
	tr.end(s)
	v["bcc.blocks"] = float64(blocks.NumBlocks())
	v["bcc.articulation_points"] = float64(len(blocks.ArticulationPoints()))

	s = tr.begin("graphio.stream_load")
	t = time.Now()
	streamed, err := readBinaryCSR(spec.Graph)
	if err != nil {
		return fmt.Errorf("stream-load probe: %w", err)
	}
	v["graphio.stream_load_s"] = time.Since(t).Seconds()
	tr.end(s)
	if streamed.NumVertices() != g.NumVertices() || streamed.NumArcs() != g.NumArcs() {
		return fmt.Errorf("stream-load probe: %d/%d vertices/arcs, pipeline loaded %d/%d",
			streamed.NumVertices(), streamed.NumArcs(), g.NumVertices(), g.NumArcs())
	}

	base := core.Options{Workers: spec.Workers, RootBudget: spec.RootBudget}
	s = tr.begin("core.static_sweep")
	t = time.Now()
	opt := base
	opt.Scheduler = core.SchedulerStatic
	if _, err := core.ComputeDecomposed(d, opt); err != nil {
		return fmt.Errorf("static-scheduler probe: %w", err)
	}
	v["core.static_sweep_s"] = time.Since(t).Seconds()
	tr.end(s)

	rssBefore := profiling.PeakRSSBytes()
	s = tr.begin("msbfs.sweep")
	t = time.Now()
	opt = base
	opt.RootEngine = core.EngineMSBFS
	batched, err := core.ComputeDecomposed(d, opt)
	if err != nil {
		return fmt.Errorf("msbfs probe: %w", err)
	}
	v["msbfs.sweep_s"] = time.Since(t).Seconds()
	tr.end(s)
	v["msbfs.rss_delta_mb"] = float64(profiling.PeakRSSBytes()-rssBefore) / (1 << 20)
	v["msbfs.max_rel_diff"] = maxRelErr(batched, scalar)
	return nil
}

// writeScores stores a score vector as raw little-endian float64.
func writeScores(path string, scores []float64, corrupt bool) error {
	if corrupt && len(scores) > 0 {
		scores = append([]float64(nil), scores...)
		i := len(scores) / 2
		scores[i] += 1 + math.Abs(scores[i])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := binary.Write(w, binary.LittleEndian, scores); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readScores(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	scores := make([]float64, st.Size()/8)
	if err := binary.Read(bufio.NewReaderSize(f, 1<<20), binary.LittleEndian, scores); err != nil && err != io.EOF {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return scores, nil
}
