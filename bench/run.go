package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/metrics"
)

const (
	// Set-up is repeated and its median reported, so one slow file write does
	// not read as a set-up regression: at least minSetupReps times, and on —
	// the small inputs stage in milliseconds, where five samples are all
	// jitter — until setupBudget is spent or maxSetupReps is reached.
	minSetupReps = 5
	maxSetupReps = 40
	setupBudget  = time.Second
	// minReps: the fewest timed repetitions behind wall_s and behind
	// wall_p1_s, however short -seconds is. With three, one slow spell of the
	// shared VM moved scale's wall_p1_s by 89 % between two runs.
	minReps = 5
	// relTol is the per-vertex agreement demanded between a timed answer and
	// the serial-Brandes oracle, relative to max(1, |score|).
	relTol = 1e-9
	// childTimeout bounds one child so a hung run cannot outlive the driver's
	// 180 s limit on the whole invocation.
	childTimeout = 100 * time.Second
	// tracedReps: the traced run is repeated so trace.overhead_frac compares
	// two medians, not one sample against a median; only the last repetition
	// carries the probes.
	tracedReps = 3
	// incProbeOps is how much of the edit script the core.Incremental probe
	// replays without the server (four blocks: eight rebuild samples).
	incProbeOps = 4 * blockLen
)

// metric is one reported number with what it was computed from.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// wlResult is one workload's section of the result file.
type wlResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Params    any               `json:"params"`
	Constants map[string]any    `json:"constants"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// runner holds one invocation's settings and scratch directory.
type runner struct {
	exe     string // this binary, re-executed for every measuring child
	work    string
	nproc   int
	seed    int64
	seconds float64
	// trace: 0 runs the untraced repetitions only (end-to-end metrics), 1
	// the traced run plus the few untraced repetitions its ratios need
	// (per-layer metrics), 2 both.
	trace   int
	toy     bool
	corrupt bool
	spawned int
	spans   []span
}

// layer records one per-layer metric, taking its unit from the manifest so
// the two cannot disagree.
func (res *wlResult) layer(name string, value float64, n int) {
	for _, def := range perLayer {
		if def.Name == name {
			res.PerLayer[name] = metric{Value: value, Unit: def.Unit, N: n}
			return
		}
	}
	panic("bench: per-layer metric " + name + " is not in the manifest")
}

// layersFrom copies every per-layer metric a child measured.
func (res *wlResult) layersFrom(c childResult) {
	for _, def := range perLayer {
		if val, ok := c.Values[def.Name]; ok {
			res.layer(def.Name, val, 1)
		}
	}
}

func (res *wlResult) fail(format string, args ...any) {
	res.Failed++
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

// spawn runs one measuring child with GOMAXPROCS pinned to spec.Workers and
// returns what it wrote. The child's result files are removed once read.
func (r *runner) spawn(spec childSpec) (childResult, []float64, error) {
	r.spawned++
	spec.Run = fmt.Sprintf("%s-%03d", spec.Kind, r.spawned)
	spec.Out = filepath.Join(r.work, spec.Run)
	if r.corrupt && r.spawned == 1 {
		spec.Corrupt = true
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return childResult{}, nil, err
	}
	specPath := spec.Out + ".spec"
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		return childResult{}, nil, err
	}
	defer func() {
		for _, ext := range []string{".spec", ".json", ".f64", recoveredExt} {
			os.Remove(spec.Out + ext)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, "-child", specPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS="+strconv.Itoa(spec.Workers),
		spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return childResult{}, nil, fmt.Errorf("child %s: %w", spec.Run, err)
	}
	var res childResult
	if raw, err = os.ReadFile(spec.Out + ".json"); err == nil {
		err = json.Unmarshal(raw, &res)
	}
	if err != nil {
		return childResult{}, nil, fmt.Errorf("child %s: %w", spec.Run, err)
	}
	scores, err := readScores(spec.Out + ".f64")
	if err != nil {
		return childResult{}, nil, fmt.Errorf("child %s: %w", spec.Run, err)
	}
	if spec.Kind == "phases" {
		if res.recovered, err = readScores(spec.Out + recoveredExt); err != nil {
			return childResult{}, nil, fmt.Errorf("child %s: %w", spec.Run, err)
		}
	}
	r.spans = append(r.spans, res.Spans...)
	return res, scores, nil
}

// staged is a workload's generated input on disk, plus what set-up cost.
type staged struct {
	g     *graph.Graph
	path  string
	build []time.Duration
	save  []time.Duration
	total []time.Duration
	// serve only
	script []edgeOp
}

// stage generates the workload's graph from the seed and writes it as a
// format-v2 .bin, several times over (see minSetupReps). For serve, deriving the edit script (one
// decomposition of the staged graph) is part of set-up: it is an input too.
func (r *runner) stage(w workload, params any) (*staged, error) {
	st := &staged{path: filepath.Join(r.work, w.Name+".bin")}
	start := time.Now()
	for i := 0; i < minSetupReps || i < maxSetupReps && time.Since(start) < setupBudget; i++ {
		t0 := time.Now()
		st.g = buildGraph(params, r.nproc)
		t1 := time.Now()
		if err := graphio.SaveFile(st.path, "", st.g); err != nil {
			return nil, fmt.Errorf("stage %s: %w", w.Name, err)
		}
		t2 := time.Now()
		if w.Kind == "serve" {
			d, err := decompose.Decompose(st.g, decompose.Options{Workers: r.nproc})
			if err != nil {
				return nil, fmt.Errorf("stage %s: %w", w.Name, err)
			}
			// Far more blocks than the mixed phase can consume.
			st.script = buildScript(st.g, d, r.seed, 200)
			if len(st.script) == 0 {
				return nil, fmt.Errorf("stage %s: graph too small for an edit script", w.Name)
			}
		}
		st.build = append(st.build, t1.Sub(t0))
		st.save = append(st.save, t2.Sub(t1))
		st.total = append(st.total, time.Since(t0))
	}
	return st, nil
}

// reps collects the untraced repetitions of one workload at the two worker
// counts.
type reps struct {
	np, p1 []childResult
	// first is the first good repetition and ref its answer, per worker
	// count: the scheduler's merge order — and so the last bits of a score —
	// is a function of (graph, options, workers), not of the graph alone.
	first map[int]childResult
	ref   map[int][]float64
}

// values extracts one measurement from each repetition.
func values(of []childResult, key string) []float64 {
	out := make([]float64, len(of))
	for i, c := range of {
		out[i] = c.Values[key]
	}
	return out
}

// measure alternates repetitions at workers = nproc and workers = 1 for the
// window, never fewer than the minimums. verify judges each answer against
// the workload's oracle and returns why it is wrong, or "".
func (r *runner) measure(res *wlResult, window time.Duration, minN, minP1 int,
	spec func(workers int) childSpec, verify func(c childResult, scores []float64) string) *reps {
	rp := &reps{first: map[int]childResult{}, ref: map[int][]float64{}}
	// One repetition is run, verified and thrown away first: the first child
	// after set-up and the oracle read 1.5–2.4× slower than the rest in two
	// of five runs on the VM this was sized on, which is the benchmark's own
	// history, not a cost a user pays.
	warm := true
	start := time.Now()
	for failed := 0; failed < 3; {
		late := time.Since(start) >= window
		needN, needP1 := len(rp.np) < minN, len(rp.p1) < minP1
		if late && !needN && !needP1 {
			break
		}
		p1Turn := late && !needN || !late && len(rp.p1) < len(rp.np)
		workers := r.nproc
		if p1Turn {
			workers = 1
		}
		res.Attempted++
		c, scores, err := r.spawn(spec(workers))
		if err != nil {
			res.fail("%v", err)
			failed++
			continue
		}
		if why := rp.judge(workers, c, scores, verify); why != "" {
			res.fail("repetition %d (workers=%d): %s", res.Attempted, workers, why)
			failed++
			continue
		}
		switch {
		case warm:
			warm, start = false, time.Now()
		case p1Turn:
			rp.p1 = append(rp.p1, c)
		default:
			rp.np = append(rp.np, c)
		}
	}
	return rp
}

// judge applies the workload's oracle check, then what every workload shares.
// The work counted behind an answer and the way each mutation was served are
// functions of the input alone, so they must equal the first good
// repetition's exactly. The answer itself must be bit-identical to the first
// one computed with the same worker count (across loaders and traced runs
// too), and within relTol of the answers at the other worker count.
func (rp *reps) judge(workers int, c childResult, scores []float64, verify func(childResult, []float64) string) string {
	if why := verify(c, scores); why != "" {
		return why
	}
	for w, first := range rp.first {
		for _, k := range []string{"core.traversed_arcs", "core.roots"} {
			if c.Values[k] != first.Values[k] {
				return fmt.Sprintf("%s = %v, an earlier repetition had %v", k, c.Values[k], first.Values[k])
			}
		}
		if !slices.Equal(c.Results, first.Results) {
			return fmt.Sprintf("mutations served as %v, an earlier repetition had %v", c.Results, first.Results)
		}
		if w == workers && !bitIdentical(scores, rp.ref[w]) {
			return fmt.Sprintf("answer is not bit-identical to the first one at workers=%d", w)
		}
		if e := maxRelErr(scores, rp.ref[w]); !(e <= relTol) {
			return fmt.Sprintf("answer differs from the one at workers=%d by %.3g relative", w, e)
		}
	}
	if _, seen := rp.ref[workers]; !seen {
		rp.first[workers], rp.ref[workers] = c, scores
	}
	return ""
}

// timing summarises samples as their median, with min, max, n and the raw
// values kept for the result file.
func timing(samples []float64, unit string) metric {
	if len(samples) == 0 {
		return metric{Unit: unit}
	}
	return metric{Value: median(samples), Unit: unit, N: len(samples),
		Min: slices.Min(samples), Max: slices.Max(samples), Samples: samples}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// untracedWindow is how long, and at least how often, the untraced
// repetitions run.
func (r *runner) untracedWindow() (time.Duration, int, int) {
	if r.toy {
		return 0, 1, 1
	}
	if r.trace == 1 {
		// The traced run needs a baseline for trace.overhead_frac and p=1
		// sweeps for core.parallel_eff, not steady end-to-end medians.
		return time.Duration(r.seconds / 3 * float64(time.Second)), 3, 2
	}
	return time.Duration(r.seconds * float64(time.Second)), minReps, minReps
}

// runWorkload stages, measures, verifies and (when asked) traces one workload.
func (r *runner) runWorkload(w workload) (*wlResult, error) {
	params := w.Params(r.seed, r.toy)
	res := &wlResult{Name: w.Name, Why: w.Why, Params: params, Constants: map[string]any{
		"min_setup_reps": minSetupReps, "max_setup_reps": maxSetupReps, "min_reps": minReps, "traced_reps": tracedReps,
		"workers": r.nproc, "workers_p1": 1, "root_budget": w.RootBudget, "loader": w.Loader,
		"rel_tol": relTol, "seconds": r.seconds, "trace": r.trace,
	}}
	st, err := r.stage(w, params)
	if err != nil {
		return nil, err
	}
	if w.Kind == "serve" {
		err = r.runServe(w, st, res)
	} else {
		err = r.runBatch(w, st, res)
	}
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = timing(seconds(st.total), "s")
	if res.PerLayer != nil {
		res.PerLayer["gen.build_s"] = timing(seconds(st.build), "s")
		res.PerLayer["gen.save_s"] = timing(seconds(st.save), "s")
		if fi, err := os.Stat(st.path); err == nil {
			res.layer("graphio.file_mb", float64(fi.Size())/(1<<20), 1)
		}
		// A layer this workload never entered was busy for zero seconds.
		for _, def := range perLayer {
			if _, ok := res.PerLayer[def.Name]; !ok {
				res.layer(def.Name, 0, 0)
			}
		}
	}
	return res, nil
}

// oracle is the independent answer a workload's outputs are checked against.
type oracle struct {
	want    []float64 // nil when no full oracle is feasible (scale)
	serialS float64
	// canary (scale only): the same family computed exactly at a size Brandes
	// can check.
	canaryErr     float64
	canarySpeedup float64
}

func (r *runner) batchOracle(w workload, st *staged, res *wlResult) oracle {
	var o oracle
	if w.RootBudget == 0 {
		t := time.Now()
		o.want = brandes.Serial(st.g)
		o.serialS = time.Since(t).Seconds()
		return o
	}
	g := buildGraph(canaryParams(r.seed, r.toy), r.nproc)
	t := time.Now()
	want := brandes.Serial(g)
	o.serialS = time.Since(t).Seconds()
	res.Attempted++
	t = time.Now()
	got, err := core.Compute(g, core.Options{Workers: r.nproc})
	if err != nil {
		res.fail("canary: %v", err)
		return o
	}
	o.canarySpeedup = o.serialS / time.Since(t).Seconds()
	if o.canaryErr = maxRelErr(got, want); !(o.canaryErr <= relTol) {
		res.fail("canary: exact APGRE differs from serial Brandes by %.3g relative", o.canaryErr)
	}
	return o
}

func (r *runner) runBatch(w workload, st *staged, res *wlResult) error {
	o := r.batchOracle(w, st, res)
	worstErr := o.canaryErr
	spec := func(workers int) childSpec {
		return childSpec{Kind: "batch", Graph: st.path, Loader: w.Loader, Workers: workers, RootBudget: w.RootBudget}
	}
	verify := func(c childResult, scores []float64) string {
		if len(scores) != st.g.NumVertices() {
			return fmt.Sprintf("%d scores for %d vertices", len(scores), st.g.NumVertices())
		}
		if o.want != nil {
			e := maxRelErr(scores, o.want)
			worstErr = math.Max(worstErr, e)
			if !(e <= relTol) {
				return fmt.Sprintf("differs from serial Brandes by %.3g relative", e)
			}
		}
		return ""
	}
	window, minN, minP1 := r.untracedWindow()
	rp := r.measure(res, window, minN, minP1, spec, verify)
	if len(rp.np) == 0 || len(rp.p1) == 0 {
		return fmt.Errorf("%s: no repetition succeeded: %v", w.Name, res.Failures)
	}
	if w.Loader == "mmap" {
		// The zero-copy and the copying loader must yield the same answer.
		res.Attempted++
		alt := spec(r.nproc)
		alt.Loader = "stream"
		if c, scores, err := r.spawn(alt); err != nil {
			res.fail("%v", err)
		} else if why := rp.judge(r.nproc, c, scores, verify); why != "" {
			res.fail("stream-loaded: %s", why)
		}
	}
	res.EndToEnd = map[string]metric{
		"wall_s":      timing(values(rp.np, "wall_s"), "s"),
		"wall_p1_s":   timing(values(rp.p1, "wall_s"), "s"),
		"peak_rss_mb": timing(values(rp.np, "peak_rss_mb"), "MB"),
	}
	if r.trace == 0 {
		return nil
	}
	res.PerLayer = map[string]metric{}
	var c childResult
	var tracedRun []float64
	for i := 0; i < tracedReps; i++ {
		traced := spec(r.nproc)
		traced.Trace, traced.Probes = true, i == tracedReps-1
		res.Attempted++
		var scores []float64
		var err error
		if c, scores, err = r.spawn(traced); err != nil {
			res.fail("%v", err)
			return nil
		}
		if why := rp.judge(r.nproc, c, scores, verify); why != "" {
			res.fail("traced run: %s", why)
		}
		tracedRun = append(tracedRun, c.Values["run_s"])
	}
	r.batchLayers(res, c, tracedRun, rp, o, worstErr)
	return nil
}

// batchLayers turns the traced batch child's measurements, the untraced
// repetitions and the oracle into the per-layer metrics of the batch
// pipeline's layers.
func (r *runner) batchLayers(res *wlResult, c childResult, tracedRun []float64, rp *reps, o oracle, worstErr float64) {
	v := c.Values
	one := func(name string, value float64) { res.layer(name, value, 1) }
	res.layersFrom(c)
	n, arcs := v["graph.verts"], v["graph.arcs"]
	one("decompose.root_frac", v["decompose.roots"]/math.Max(n, 1))
	one("decompose.share", v["decompose.total_s"]/v["run_s"])
	one("core.arcs_per_s", v["core.traversed_arcs"]/v["core.sweep_s"])
	one("core.work_vs_brandes", v["core.traversed_arcs"]/math.Max(n*arcs, 1))
	one("msbfs.vs_scalar", v["core.sweep_s"]/v["msbfs.sweep_s"])
	sweepP1 := timing(values(rp.p1, "core.sweep_s"), "s")
	res.PerLayer["core.sweep_p1_s"] = sweepP1
	one("core.parallel_eff", sweepP1.Value/(float64(r.nproc)*v["core.sweep_s"]))
	one("core.p1_max_rel_diff", maxRelErr(rp.ref[1], rp.ref[r.nproc]))
	one("brandes.serial_s", o.serialS)
	if o.want != nil {
		one("brandes.speedup", o.serialS/median(values(rp.np, "wall_s")))
	} else {
		one("brandes.speedup", o.canarySpeedup)
	}
	one("brandes.max_rel_err", worstErr)
	one("trace.overhead_frac", median(tracedRun)/median(values(rp.np, "run_s"))-1)
	one("trace.spans", float64(len(c.Spans)))
}

func (r *runner) runServe(w workload, st *staged, res *wlResult) error {
	res.Constants["block_len"] = blockLen
	res.Constants["read_rate_per_s"] = readRate
	res.Constants["read_slo_ms"] = ms(readSLO)
	res.Constants["read_conns"] = readConns
	res.Constants["cold_reps"] = coldReps

	block := st.script[:blockLen]
	want := brandes.Serial(applyScript(st.g, block))
	worstErr := 0.0
	check := func(scores, want []float64) string {
		if len(scores) != len(want) {
			return fmt.Sprintf("%d scores for %d vertices", len(scores), len(want))
		}
		e := maxRelErr(scores, want)
		worstErr = math.Max(worstErr, e)
		if !(e <= relTol) {
			return fmt.Sprintf("served scores differ from serial Brandes on the client's edge set by %.3g relative", e)
		}
		return ""
	}
	dirs := 0
	spec := func(workers int) childSpec {
		dirs++
		return childSpec{Kind: "session", Graph: st.path, Workers: workers,
			Serve: &serveSpec{DataDir: filepath.Join(r.work, fmt.Sprintf("data-%03d", dirs)), Script: block}}
	}
	verify := func(_ childResult, scores []float64) string { return check(scores, want) }
	window, minN, minP1 := r.untracedWindow()
	rp := r.measure(res, window, minN, minP1, spec, verify)
	if len(rp.np) == 0 || len(rp.p1) == 0 {
		return fmt.Errorf("%s: no session succeeded: %v", w.Name, res.Failures)
	}
	res.EndToEnd = map[string]metric{
		"wall_s":      timing(values(rp.np, "wall_s"), "s"),
		"wall_p1_s":   timing(values(rp.p1, "wall_s"), "s"),
		"peak_rss_mb": timing(values(rp.np, "peak_rss_mb"), "MB"),
	}
	if r.trace == 0 {
		return nil
	}
	res.PerLayer = map[string]metric{}

	// The batch pipeline's layers on the same staged file: what share of a
	// cold load is parse, partition, sweep.
	t := time.Now()
	initial := brandes.Serial(st.g)
	serialS := time.Since(t).Seconds()
	brp := &reps{first: map[int]childResult{}, ref: map[int][]float64{}}
	batch := func(workers int, traced bool) (childResult, bool) {
		s := childSpec{Kind: "batch", Graph: st.path, Loader: "file", Workers: workers, Trace: traced, Probes: traced}
		res.Attempted++
		c, scores, err := r.spawn(s)
		if err == nil {
			if why := brp.judge(workers, c, scores, func(_ childResult, s []float64) string { return check(s, initial) }); why != "" {
				err = fmt.Errorf("batch pipeline on the serve graph: %s", why)
			}
		}
		if err != nil {
			res.fail("%v", err)
		}
		return c, err == nil
	}
	if p1, ok := batch(1, false); ok {
		if np, ok := batch(r.nproc, false); ok {
			if c, ok := batch(r.nproc, true); ok {
				brp.np, brp.p1 = []childResult{np}, []childResult{p1}
				r.batchLayers(res, c, []float64{c.Values["run_s"]}, brp, oracle{want: initial, serialS: serialS}, worstErr)
			}
		}
	}

	// Traced sessions: the unit operation with spans around every call.
	var tracedRun []float64
	spans := 0
	for i := 0; i < tracedReps; i++ {
		traced := spec(r.nproc)
		traced.Trace = true
		res.Attempted++
		c, scores, err := r.spawn(traced)
		if err == nil {
			if why := rp.judge(r.nproc, c, scores, verify); why != "" {
				err = fmt.Errorf("traced session: %s", why)
			}
		}
		if err != nil {
			res.fail("%v", err)
			continue
		}
		tracedRun = append(tracedRun, c.Values["run_s"])
		spans = len(c.Spans)
	}
	res.layer("trace.overhead_frac", median(tracedRun)/median(values(rp.np, "run_s"))-1, len(tracedRun))
	res.layer("trace.spans", float64(spans), 1)

	// The serving phases: cold loads, reads alone, reads beside edits, recovery.
	ph := spec(r.nproc)
	ph.Kind = "phases"
	ph.Serve.Script = st.script
	ph.Serve.BaseSeconds, ph.Serve.MixSeconds = r.seconds/4, r.seconds*0.75
	if r.toy {
		ph.Serve.BaseSeconds, ph.Serve.MixSeconds = 0.2, 0.3
	}
	res.Constants["base_seconds"], res.Constants["mix_seconds"] = ph.Serve.BaseSeconds, ph.Serve.MixSeconds
	res.Attempted++
	c, scores, err := r.spawn(ph)
	if err != nil {
		res.fail("%v", err)
		return nil
	}
	applied := int(c.Values["server.mutations"])
	res.Attempted += applied + int(c.Values["reads_due"])
	res.Failed += int(c.Values["reads_failed"])
	if n := int(c.Values["reads_failed"]); n > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d reads were not answered 200", n))
	}
	res.Notes = append(res.Notes, c.Notes...)
	final := applyScript(st.g, st.script[:applied])
	if why := check(scores, brandes.Serial(final)); why != "" {
		res.fail("after %d mutations: %s", applied, why)
	}
	if fresh, err := core.NewIncremental(final, core.Options{}); err != nil {
		res.fail("core.NewIncremental: %v", err)
	} else if !bitIdentical(c.recovered, fresh.BC()) {
		res.fail("scores served after Recover are not bit-identical to a fresh computation of the same edge set")
	}
	res.layersFrom(c)
	res.layer("brandes.max_rel_err", worstErr, 1)

	// core.Incremental alone, no server, no WAL: the same script replayed op
	// by op. It also fixes what class each op must have been served as.
	t = time.Now()
	inc, err := core.NewIncremental(st.g, core.Options{})
	if err != nil {
		res.fail("core.NewIncremental: %v", err)
		return nil
	}
	res.layer("core.inc_new_s", time.Since(t).Seconds(), 1)
	var local, rebuild []time.Duration
	for i, op := range st.script[:min(incProbeOps, applied)] {
		before := inc.FullRebuilds()
		t = time.Now()
		errs, err := inc.ApplyBatch([]core.EdgeOp{{Add: op.Add, U: op.U, V: op.V}})
		took := time.Since(t)
		if err != nil || errs[0] != nil {
			res.fail("core.Incremental replay of op %d: %v %v", i, err, errs[0])
			break
		}
		class := "local"
		if inc.FullRebuilds() > before {
			class = "rebuild"
			rebuild = append(rebuild, took)
		} else {
			local = append(local, took)
		}
		if c.Results[i] != class {
			res.fail("op %d was served as %s, core.Incremental alone makes it %s", i, c.Results[i], class)
		}
	}
	incLocal := ms(metrics.Percentile(local, 50))
	res.layer("core.inc_local_p50_ms", incLocal, len(local))
	res.layer("core.inc_rebuild_p50_ms", ms(metrics.Percentile(rebuild, 50)), len(rebuild))
	res.layer("server.mutate_overhead_ms", c.Values["server.mutate_local_p50_ms"]-incLocal, 1)
	return nil
}
