package server

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/graphio"
)

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

	// Path is a graph file (graphio.ReadFile); Format overrides extension
	// sniffing and Directed applies to edge-list input.
	Path     string `json:"path,omitempty"`
	Format   string `json:"format,omitempty"`
	Directed bool   `json:"directed,omitempty"`

	// Edges is an inline edge list over vertices [0, N); Directed applies.
	N     int        `json:"n,omitempty"`
	Edges [][2]int32 `json:"edges,omitempty"`

	// Threshold is the decomposition threshold (0: decompose.DefaultThreshold).
	Threshold int `json:"threshold,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

type buildJob struct {
	e    *Entry
	spec LoadSpec
	// pre, when non-nil, is a graph recovered from a durable directory
	// (Recover): the job skips source materialization and pays only the
	// decomposition of the recovered state.
	pre *graph.Graph
	// file is spec.Path opened, or nil (Close is nil-safe); fileErr is why an
	// unconfined spec.Path did not open, which fails the build.
	file    *os.File
	fileErr error
}

// Load registers spec.Name and enqueues the build job. It returns
// immediately; poll Get until the state leaves StateLoading. spec.Path opens
// as given: only a load over HTTP is confined to Config.LoadRoot.
func (r *Registry) Load(spec LoadSpec) (*Entry, error) { return r.load(spec, "") }

// load is Load with spec.Path opened under root, when set. The path is opened
// before anything is queued, so that no file outside root is ever opened and
// a path that names no regular file — a FIFO, whose open would block until a
// writer came, a device, a directory — is refused here instead of hanging or
// failing a build.
func (r *Registry) load(spec LoadSpec, root string) (*Entry, error) {
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
	j := buildJob{e: &Entry{name: spec.Name, state: StateLoading, threshold: max(spec.Threshold, 0)}, spec: spec}
	if spec.Path != "" {
		f, err := openGraphFile(root, spec.Path)
		var irregular *notRegularError
		switch {
		case errors.As(err, &irregular):
			return nil, err
		case err != nil && root != "":
			return nil, loadRootError{err}
		}
		j.file, j.fileErr = f, err
	}
	if err := r.admit(j); err != nil {
		j.file.Close()
		return nil, err
	}
	return j.e, nil
}

// openGraphFile opens path — under root when root is set — without blocking
// (O_NONBLOCK: a FIFO opens at once instead of waiting for a writer) and
// keeps it only if it is a regular file.
func openGraphFile(root, path string) (*os.File, error) {
	const flag = os.O_RDONLY | syscall.O_NONBLOCK
	var f *os.File
	var err error
	if root == "" {
		f, err = os.OpenFile(path, flag, 0)
	} else {
		var rt *os.Root
		if rt, err = os.OpenRoot(root); err == nil {
			f, err = rt.OpenFile(path, flag, 0)
			rt.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	switch {
	case err != nil:
	case !st.Mode().IsRegular():
		err = &notRegularError{Path: path}
	default:
		return f, nil
	}
	f.Close()
	return nil, err
}

// admit registers j's entry and queues its build: ErrShutdown once the
// registry is closed, a ConflictError for a name in use, an OverloadError
// when the build queue is full. The send happens under r.mu so Close (which
// takes r.mu before closing the channel) can never close r.jobs mid-send.
func (r *Registry) admit(j buildJob) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrShutdown
	}
	name := j.e.name
	if _, ok := r.graphs[name]; ok {
		return &ConflictError{Name: name}
	}
	select {
	case r.jobs <- j:
		r.graphs[name] = j.e
		return nil
	default:
		r.m.overload.With("build").Inc()
		return &OverloadError{Op: "build", Name: name, RetryAfter: r.lim.retryAfter}
	}
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

// fail records a build that did not finish and counts its load job under
// status. A "canceled" build was cut short by shutdown, not by a build error:
// StateAborted instead of StateFailed lets job polling tell the two apart.
func (e *Entry) fail(m *Metrics, status string, err error) {
	state := StateFailed
	if status == "canceled" {
		state = StateAborted
	}
	e.mu.Lock()
	e.state = state
	e.err = err
	e.mu.Unlock()
	m.loads.With(status).Inc()
}

// runBuild executes one load job: materialize the graph (or take the
// recovered one), decompose, compute initial BC, then set up durability and
// start the entry's mutation worker. The coarse-grained cancellation points
// are between phases — the phases themselves are CPU-bound library calls.
func (r *Registry) runBuild(j buildJob) {
	defer j.file.Close()
	if r.beforeBuild != nil {
		r.beforeBuild()
	}
	start := time.Now()
	if err := r.ctx.Err(); err != nil {
		j.e.fail(r.m, "canceled", fmt.Errorf("%w: %w", errAborted, err))
		return
	}
	inc, status, err := r.buildEngine(j)
	if err != nil {
		j.e.fail(r.m, status, err)
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
		if wal, err = r.initDurable(dir, j.e, g); err != nil {
			r.mutWg.Done()
			j.e.fail(r.m, "error", err)
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
		j.e.mutCh = make(chan *mutRequest, r.lim.mutationQueue)
		j.e.mutDone = make(chan struct{})
	}
	j.e.mu.Unlock()
	if attached {
		go r.mutWorker(j.e)
	}
	r.m.loads.With("ok").Inc()
	r.m.graphs.With().Set(int64(r.NumReady()))
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
		if j.fileErr != nil {
			return nil, "error", j.fileErr
		}
		if g, err = buildGraph(j.spec, j.file); err != nil {
			return nil, "error", err
		}
	}
	if err := r.ctx.Err(); err != nil {
		return nil, "canceled", fmt.Errorf("%w: %w", errAborted, err)
	}
	inc, err = core.NewIncremental(g, core.Options{Threshold: j.e.threshold})
	return inc, "error", err
}

// buildGraph materializes spec's graph; f is spec.Path opened.
func buildGraph(spec LoadSpec, f *os.File) (*graph.Graph, error) {
	switch {
	case spec.Dataset != "":
		scale := spec.Scale
		if scale <= 0 {
			scale = 0.25
		}
		ds, err := datasets.ByName(spec.Dataset)
		if err != nil {
			return nil, err
		}
		return ds.Build(scale), nil
	case spec.Path != "":
		g, _, err := graphio.ReadFile(f, spec.Format, spec.Directed, false)
		if err != nil {
			log.Printf("server: load %q from %s: %v", spec.Name, spec.Path, err)
			return nil, fileError(err)
		}
		return g, nil
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

// fileError is what a client is told about a graph file that did not load:
// the error class and, for a text format, the line. The parser's own text
// quotes the file — the first line of a secret, say — so it goes only to the
// log. An OS error names just the client's own path.
func fileError(err error) error {
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return err
	}
	where := ""
	if line, ok := strings.CutPrefix(err.Error(), "graphio: line "); ok {
		where, _, _ = strings.Cut(line, ":")
		where = " at line " + where
	}
	return fmt.Errorf("server: graph file: parse error%s (the daemon's log has the details)", where)
}
