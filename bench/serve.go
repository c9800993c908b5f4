package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/server"
)

// The serve workload drives internal/server the way bcd exposes it: a
// Registry with a data directory (WAL + snapshots) behind server.New on a
// loopback listener, and a client in the same child process speaking HTTP.
// Load generation is one process and at most nproc connections.

const (
	graphName = "g"
	// blockLen is the length of one edit block. Each block holds two
	// cross-sub-graph insertions (the server must re-decompose: "rebuild")
	// and eight edits that stay inside one sub-graph ("local"), so the
	// rebuild share of a whole number of blocks is exactly 0.2.
	blockLen = 10
	// readRate and readSLO define the open-loop read load of the mixed
	// phase: 500 top-K reads per second, each due at a fixed time, counted as
	// good when answered 200 within 5 ms of its due time.
	readRate = 500
	readSLO  = 5 * time.Millisecond
	// readConns is the number of client connections the reads are spread
	// over (≤ nproc on the 2-core box this was sized on).
	readConns = 2
	coldReps  = 5
	// recoveredExt names the phases child's second vector: what the daemon
	// serves after Recover.
	recoveredExt = ".recovered.f64"
)

// edgeOp is one scripted mutation.
type edgeOp struct {
	Add bool
	U   int32
	V   int32
}

// serveSpec parameterises the serve children.
type serveSpec struct {
	DataDir string
	Script  []edgeOp
	// BaseSeconds / MixSeconds are the lengths of the read-only and the mixed
	// phase of the phases child.
	BaseSeconds float64
	MixSeconds  float64
}

// buildScript derives the seeded edit script from the staged graph's
// decomposition. Local edits toggle a non-edge between two non-articulation
// vertices of the top sub-graph: both endpoints live in exactly one
// sub-graph, so core.Incremental recomputes that sub-graph only. Structural
// edits insert (and later remove) an edge between non-articulation vertices
// of two different sub-graphs: the insertion fuses blocks along the block-cut
// tree and forces a full re-decomposition. Per block:
//
//	+X0 +La +Lb −X0 +Lc +X1 −La −Lb −X1 +Ld
//
// so every block nets two extra local edges and the graph the server ends on
// differs from the one it loaded. Graphs with a single sub-graph (no
// structural candidate) get local edits in the X slots.
func buildScript(g *graph.Graph, d *decompose.Decomposition, seed int64, blocks int) []edgeOp {
	rng := rand.New(rand.NewSource(seed))
	plain := func(sg *decompose.Subgraph) []graph.V {
		var out []graph.V
		for l, v := range sg.Verts {
			if !sg.IsArt[l] {
				out = append(out, v)
			}
		}
		return out
	}
	if d.TopIndex < 0 {
		return nil
	}
	top := plain(d.Subgraphs[d.TopIndex])
	var others [][]graph.V
	for i, sg := range d.Subgraphs {
		if p := plain(sg); i != d.TopIndex && len(p) > 0 {
			others = append(others, p)
		}
	}
	if len(top) < 8 {
		return nil
	}
	// live holds the scripted edges present at this point of the script: the
	// two local edges every block leaves behind for good, and whatever the
	// current block has inserted and not yet removed.
	live := map[[2]graph.V]bool{}
	pick := func(as, bs []graph.V) ([2]graph.V, bool) {
		for try := 0; try < 1000; try++ {
			u, v := as[rng.Intn(len(as))], bs[rng.Intn(len(bs))]
			if u > v {
				u, v = v, u
			}
			if e := [2]graph.V{u, v}; u != v && !g.HasArc(u, v) && !live[e] {
				live[e] = true
				return e, true
			}
		}
		return [2]graph.V{}, false
	}
	local := func() ([2]graph.V, bool) { return pick(top, top) }
	cross := func() ([2]graph.V, bool) {
		if len(others) < 2 {
			return local()
		}
		i := rng.Intn(len(others))
		j := rng.Intn(len(others) - 1)
		if j >= i {
			j++
		}
		return pick(others[i], others[j])
	}
	var script []edgeOp
	for b := 0; b < blocks; b++ {
		var e [6][2]graph.V // X0 X1 La Lb Lc Ld
		for i := range e {
			draw := local
			if i < 2 {
				draw = cross
			}
			var ok bool
			if e[i], ok = draw(); !ok {
				return script // candidates exhausted: a shorter script
			}
		}
		x0, x1, la, lb, lc, ld := e[0], e[1], e[2], e[3], e[4], e[5]
		add := func(e [2]graph.V) edgeOp { return edgeOp{true, e[0], e[1]} }
		del := func(e [2]graph.V) edgeOp { return edgeOp{false, e[0], e[1]} }
		script = append(script,
			add(x0), add(la), add(lb), del(x0), add(lc),
			add(x1), del(la), del(lb), del(x1), add(ld))
		for _, gone := range [][2]graph.V{x0, x1, la, lb} {
			delete(live, gone)
		}
	}
	return script
}

// applyScript replays ops on g's edge set, as the client's own record of what
// the server must now hold.
func applyScript(g *graph.Graph, ops []edgeOp) *graph.Graph {
	type key [2]graph.V
	norm := func(u, v graph.V) key {
		if u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	removed := map[key]bool{}
	var added []graph.Edge
	for _, op := range ops {
		k := norm(op.U, op.V)
		if op.Add {
			if removed[k] {
				delete(removed, k)
			} else {
				added = append(added, graph.Edge{From: k[0], To: k[1]})
			}
			continue
		}
		found := false
		for i, e := range added {
			if norm(e.From, e.To) == k {
				added = append(added[:i], added[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			removed[k] = true
		}
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if !removed[norm(e.From, e.To)] {
			edges = append(edges, e)
		}
	}
	return graph.NewFromEdges(g.NumVertices(), append(edges, added...), g.Directed())
}

// daemon is an in-process bcd: registry + HTTP API on a loopback port.
type daemon struct {
	reg  *server.Registry
	hs   *http.Server
	done chan struct{}
	base string
}

func startDaemon(dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry(server.Config{DataDir: dataDir})
	d := &daemon{
		reg:  reg,
		hs:   &http.Server{Handler: server.New(reg, nil)},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the listener down, then the registry (final snapshot, WAL
// close), and returns once the serving goroutine has exited.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // on timeout the registry still closes below
	<-d.done
	d.reg.Close()
}

// client is one keep-alive connection's worth of HTTP client.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do sends one request and returns the status and body.
func (c *client) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c *client) expect(want int, method, path string, body any) ([]byte, error) {
	code, raw, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, path, code, want, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *client) info() (server.EntryInfo, error) {
	var info server.EntryInfo
	raw, err := c.expect(200, "GET", "/v1/graphs/"+graphName, nil)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(raw, &info)
}

// awaitReady polls the load job until the graph serves.
func (c *client) awaitReady() (server.EntryInfo, error) {
	for {
		info, err := c.info()
		if err != nil {
			return info, err
		}
		switch info.State {
		case server.StateReady:
			return info, nil
		case server.StateLoading:
			time.Sleep(500 * time.Microsecond)
		default:
			return info, fmt.Errorf("load job ended %s: %s", info.State, info.Error)
		}
	}
}

const topKPath = "/v1/graphs/" + graphName + "/bc?top=10"

// coldLoad is POST /v1/graphs {path} → poll → first bc?top=10 answered 200.
func (c *client) coldLoad(path string, tr *tracer) (info server.EntryInfo, firstTopK time.Duration, err error) {
	s := tr.begin("server.load")
	if _, err = c.expect(202, "POST", "/v1/graphs", server.LoadSpec{Name: graphName, Path: path}); err != nil {
		return
	}
	if info, err = c.awaitReady(); err != nil {
		return
	}
	tr.end(s)
	s = tr.begin("server.first_topk")
	t := time.Now()
	_, err = c.expect(200, "GET", topKPath, nil)
	firstTopK = time.Since(t)
	tr.end(s)
	return
}

// mutate sends one scripted edit and returns the server's verdict.
func (c *client) mutate(op edgeOp) (server.MutationResult, error) {
	method := "DELETE"
	if op.Add {
		method = "POST"
	}
	var res server.MutationResult
	raw, err := c.expect(200, method, "/v1/graphs/"+graphName+"/edges", map[string]int32{"from": op.U, "to": op.V})
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, err
	}
	if !res.Applied {
		return res, fmt.Errorf("mutation %+v acked without applied=true", op)
	}
	return res, nil
}

func (c *client) scores() ([]float64, error) {
	raw, err := c.expect(200, "GET", "/v1/graphs/"+graphName+"/bc?top=0", nil)
	if err != nil {
		return nil, err
	}
	var body struct {
		Scores []float64 `json:"scores"`
	}
	return body.Scores, json.Unmarshal(raw, &body)
}

// editor replays the script closed-loop (one mutation in flight) and checks
// after every ack that the very next read of the graph reflects it: the epoch
// moved on by one and the edge count is what the client's own count says.
type editor struct {
	c       *client
	epoch   uint64
	edges   int64
	lat     []time.Duration
	results []string
}

func newEditor(c *client, loaded server.EntryInfo) *editor {
	return &editor{c: c, epoch: loaded.Epoch, edges: loaded.Edges}
}

func (e *editor) apply(op edgeOp, tr *tracer) error {
	s := tr.begin("server.mutate")
	t := time.Now()
	res, err := e.c.mutate(op)
	e.lat = append(e.lat, time.Since(t))
	tr.end(s)
	if err != nil {
		return err
	}
	e.results = append(e.results, res.Result)
	if op.Add {
		e.edges++
	} else {
		e.edges--
	}
	e.epoch++
	s = tr.begin("server.read_after_ack")
	info, err := e.c.info()
	tr.end(s)
	if err != nil {
		return err
	}
	if info.Epoch != e.epoch || info.Edges != e.edges || res.Edges != e.edges {
		return fmt.Errorf("after ack of %+v: read shows epoch %d edges %d (ack said %d), want epoch %d edges %d",
			op, info.Epoch, info.Edges, res.Edges, e.epoch, e.edges)
	}
	return nil
}

// sessionChild is the serve workload's unit operation, timed from process
// spawn like the batch one: start the daemon, cold-load the file, take the
// first top-K answer, replay one edit block, and read a top-K that reflects
// the last ack. The full score vector is fetched afterwards, untimed, for the
// parent to verify.
func sessionChild(spec childSpec, spawned time.Time, tr *tracer) (childResult, []float64, error) {
	v := map[string]float64{}
	run := tr.begin("run")
	runStart := time.Now()
	s := tr.begin("server.start")
	d, err := startDaemon(spec.Serve.DataDir)
	if err != nil {
		return childResult{}, nil, err
	}
	defer d.stop()
	tr.end(s)
	c := newClient(d.base)
	t := time.Now()
	loaded, firstTopK, err := c.coldLoad(spec.Graph, tr)
	if err != nil {
		return childResult{}, nil, err
	}
	v["server.cold_first_answer_s"] = time.Since(t).Seconds()
	v["server.load_job_s"] = loaded.BuildMs / 1e3
	v["server.first_topk_ms"] = ms(firstTopK)
	ed := newEditor(c, loaded)
	for _, op := range spec.Serve.Script {
		if err := ed.apply(op, tr); err != nil {
			return childResult{}, nil, err
		}
	}
	s = tr.begin("server.topk")
	if _, err := c.expect(200, "GET", topKPath, nil); err != nil {
		return childResult{}, nil, err
	}
	tr.end(s)
	tr.end(run)
	v["run_s"] = time.Since(runStart).Seconds()
	v["wall_s"] = time.Since(spawned).Seconds()
	v["peak_rss_mb"] = float64(profiling.PeakRSSBytes()) / (1 << 20)
	scores, err := c.scores()
	if err != nil {
		return childResult{}, nil, err
	}
	return childResult{Values: v, Results: ed.results}, scores, nil
}

// readLoad is the outcome of one open-loop read phase.
type readLoad struct {
	lat    []time.Duration // answer time − due time, per read answered 200
	lag    []time.Duration // send time − due time: how late the generator ran
	due    int
	failed int
}

// openLoopReads issues top-K reads on a fixed schedule, readRate per second
// spread over readConns connections, until stop closes. A read is timed from
// when it was due, not from when it was sent, so a stall is charged to every
// read that queued behind it.
func openLoopReads(base string, stop <-chan struct{}) readLoad {
	interval := time.Second / readRate
	start := time.Now()
	parts := make([]readLoad, readConns)
	var wg sync.WaitGroup
	for w := 0; w < readConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, p := newClient(base), &parts[w]
			for i := w; ; i += readConns {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-stop:
						return
					case <-time.After(wait):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				p.due++
				p.lag = append(p.lag, time.Since(due))
				code, _, err := c.do("GET", topKPath, nil)
				if err != nil || code != 200 {
					p.failed++
					continue
				}
				p.lat = append(p.lat, time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	var all readLoad
	for _, p := range parts {
		all.lat = append(all.lat, p.lat...)
		all.lag = append(all.lag, p.lag...)
		all.due += p.due
		all.failed += p.failed
	}
	return all
}

// phasesChild produces the serve layer's per-layer numbers in one daemon
// lifetime: (A) repeated cold loads, (B) reads only, (C) reads beside the
// closed-loop editor, (D) the served vector for the parent to verify, (E)
// Close → new registry → Recover → first answer.
func phasesChild(spec childSpec) (childResult, []float64, error) {
	v := map[string]float64{}
	var notes []string
	// pct reports a percentile in ms and notes when it rests on fewer samples
	// than the rule "at least ten samples beyond it" asks for.
	pct := func(name string, lat []time.Duration, p float64) {
		v[name] = ms(metrics.Percentile(lat, p))
		if allowed := tailPercentile(len(lat)); p > allowed {
			notes = append(notes, fmt.Sprintf("%s is p%v of %d samples; ten samples beyond it would allow only p%v", name, p, len(lat), allowed))
		}
	}
	d, err := startDaemon(spec.Serve.DataDir)
	if err != nil {
		return childResult{}, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	c := newClient(d.base)

	// (A) cold: load → first answer → unload, the last one stays loaded.
	var cold, job, first []time.Duration
	var loaded server.EntryInfo
	for i := 0; i < coldReps; i++ {
		t := time.Now()
		info, firstTopK, err := c.coldLoad(spec.Graph, nil)
		if err != nil {
			return childResult{}, nil, err
		}
		cold = append(cold, time.Since(t))
		job = append(job, time.Duration(info.BuildMs*float64(time.Millisecond)))
		first = append(first, firstTopK)
		loaded = info
		if i < coldReps-1 {
			if _, err := c.expect(200, "DELETE", "/v1/graphs/"+graphName, nil); err != nil {
				return childResult{}, nil, err
			}
		}
	}
	v["server.cold_first_answer_s"] = metrics.Percentile(cold, 50).Seconds()
	v["server.load_job_s"] = metrics.Percentile(job, 50).Seconds()
	v["server.first_topk_ms"] = ms(metrics.Percentile(first, 50))

	// (B) reads only: the undisturbed baseline of the same open-loop load.
	stop := make(chan struct{})
	time.AfterFunc(time.Duration(spec.Serve.BaseSeconds*float64(time.Second)), func() { close(stop) })
	base := openLoopReads(d.base, stop)
	pct("server.read_base_p99_ms", base.lat, 99)

	// (C) mixed: the same reads beside one closed-loop editor that stops at
	// the first block boundary past the deadline.
	stop = make(chan struct{})
	var mixed readLoad
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mixed = openLoopReads(d.base, stop)
	}()
	ed := newEditor(c, loaded)
	deadline := time.Now().Add(time.Duration(spec.Serve.MixSeconds * float64(time.Second)))
	var editErr error
	for i, op := range spec.Serve.Script {
		if i%blockLen == 0 && time.Now().After(deadline) {
			break
		}
		if editErr = ed.apply(op, nil); editErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if editErr != nil {
		return childResult{}, nil, editErr
	}
	v["server.mutations"] = float64(len(ed.results))
	v["server.epochs"] = float64(ed.epoch - loaded.Epoch)
	var local, rebuild []time.Duration
	for i, r := range ed.results {
		if r == "rebuild" {
			rebuild = append(rebuild, ed.lat[i])
		} else {
			local = append(local, ed.lat[i])
		}
	}
	pct("server.mutate_p50_ms", ed.lat, 50)
	pct("server.mutate_p90_ms", ed.lat, 90)
	pct("server.mutate_local_p50_ms", local, 50)
	pct("server.mutate_rebuild_p50_ms", rebuild, 50)
	v["server.rebuild_frac"] = float64(len(rebuild)) / float64(max(len(ed.results), 1))
	v["server.read_p50_us"] = float64(metrics.Percentile(mixed.lat, 50)) / float64(time.Microsecond)
	pct("server.read_p99_ms", mixed.lat, 99)
	pct("server.gen_lag_p99_ms", mixed.lag, 99)
	good := 0
	for _, l := range mixed.lat {
		if l <= readSLO {
			good++
		}
	}
	v["server.read_slo_frac"] = float64(good) / float64(max(mixed.due, 1))
	v["reads_due"] = float64(base.due + mixed.due)
	v["reads_failed"] = float64(base.failed + mixed.failed)

	// (D) what the daemon now serves, and what /metrics says it did.
	scores, err := c.scores()
	if err != nil {
		return childResult{}, nil, err
	}
	prom, err := c.expect(200, "GET", "/metrics", nil)
	if err != nil {
		return childResult{}, nil, err
	}
	v["server.wal_appends"] = promValue(prom, `bcd_durability_total{event="append"}`)
	v["server.snapshots"] = promValue(prom, `bcd_durability_total{event="snapshot"}`)
	v["server.overload_429"] = promValue(prom, `bcd_overload_total{op="mutation"}`) + promValue(prom, `bcd_overload_total{op="build"}`)
	hit, miss := promValue(prom, `bcd_topk_cache_total{result="hit"}`), promValue(prom, `bcd_topk_cache_total{result="miss"}`)
	v["server.topk_cache_hit_frac"] = hit / max(hit+miss, 1)
	v["peak_rss_mb"] = float64(profiling.PeakRSSBytes()) / (1 << 20)

	// (E) clean shutdown, then a new registry recovers from the data
	// directory. What it serves goes to the parent, which holds it to the
	// repository's recovery contract: bit-identical to a fresh computation of
	// the same edge set. How far that is from what the old registry served —
	// scores patched incrementally, mutation by mutation — is reported.
	d.stop()
	stopped = true
	d2, err := startDaemon(spec.Serve.DataDir)
	if err != nil {
		return childResult{}, nil, err
	}
	defer d2.stop()
	c2 := newClient(d2.base)
	t := time.Now()
	if _, err := d2.reg.Recover(); err != nil {
		return childResult{}, nil, fmt.Errorf("recover: %w", err)
	}
	if _, err := c2.awaitReady(); err != nil {
		return childResult{}, nil, fmt.Errorf("recover: %w", err)
	}
	if _, err := c2.expect(200, "GET", topKPath, nil); err != nil {
		return childResult{}, nil, err
	}
	v["server.recover_s"] = time.Since(t).Seconds()
	recovered, err := c2.scores()
	if err != nil {
		return childResult{}, nil, err
	}
	v["server.recover_max_rel_diff"] = maxRelErr(recovered, scores)
	if err := writeScores(spec.Out+recoveredExt, recovered, false); err != nil {
		return childResult{}, nil, err
	}
	return childResult{Values: v, Results: ed.results, Notes: notes}, scores, nil
}

// promValue reads one sample from Prometheus text exposition; absent is 0.
func promValue(text []byte, series string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return f
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
