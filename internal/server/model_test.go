package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/brandes"
	"repro/internal/core"
	"repro/internal/graph"
)

// model is what bcd has acknowledged for one graph: its vertex count,
// directedness, decomposition threshold and edge set. Everything the registry
// serves for the graph must be a function of it.
type model struct {
	n         int
	directed  bool
	threshold int
	edges     map[[2]int32]bool
}

// randomModel draws 5n/4 edges over n vertices: trees and short cycles, so
// that articulation points, leaves and isolated vertices abound and random
// edits fuse and split blocks.
func randomModel(rng *rand.Rand, n int, directed bool) *model {
	m := &model{n: n, directed: directed, threshold: []int{1, 2, 4}[rng.Intn(3)], edges: map[[2]int32]bool{}}
	for len(m.edges) < n*5/4 {
		u, v, _ := m.pair(rng)
		m.edges[m.key(u, v)] = true
	}
	return m
}

func (m *model) key(u, v int32) [2]int32 {
	if !m.directed && u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// pair draws a vertex pair u != v and reports whether the model has its edge.
func (m *model) pair(rng *rand.Rand) (u, v int32, has bool) {
	for u == v {
		u, v = int32(rng.Intn(m.n)), int32(rng.Intn(m.n))
	}
	return u, v, m.edges[m.key(u, v)]
}

func (m *model) set(u, v int32, present bool) {
	if present {
		m.edges[m.key(u, v)] = true
	} else {
		delete(m.edges, m.key(u, v))
	}
}

func (m *model) sorted() [][2]int32 {
	out := make([][2]int32, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

func (m *model) spec(name string) LoadSpec {
	return LoadSpec{Name: name, N: m.n, Edges: m.sorted(), Directed: m.directed, Threshold: m.threshold}
}

// check holds scores served for m to serial Brandes on its edge set at 1e-9
// relative, and to a fresh core.NewIncremental on it bit for bit.
func (m *model) check(t *testing.T, label string, got []float64) {
	t.Helper()
	sorted := m.sorted()
	edges := make([]graph.Edge, len(sorted))
	for i, e := range sorted {
		edges[i] = graph.Edge{From: e[0], To: e[1]}
	}
	g := graph.NewFromEdges(m.n, edges, m.directed)
	want := brandes.Serial(g)
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, the model has %d vertices", label, len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*math.Max(1, math.Abs(want[v])) {
			t.Fatalf("%s: bc[%d] = %v, serial Brandes on the model's edges gives %v", label, v, got[v], want[v])
		}
	}
	fresh, err := core.NewIncremental(g, core.Options{Threshold: m.threshold})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, label+": vs a fresh NewIncremental on the model's edges", got, fresh.BC())
}

// TestRegistryMatchesModel holds bcd's contract to a model: the edge set it
// acknowledged. "script" drives one durable registry through seeded steps —
// valid and invalid edits, bursts, crash and clean restarts, unload and
// reload — and checks every step; "concurrent" runs readers beside bursting
// mutators over HTTP (ci.sh runs it under -race).
func TestRegistryMatchesModel(t *testing.T) {
	t.Run("script", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			directed := seed%2 == 0
			t.Run(fmt.Sprintf("seed=%d,directed=%v", seed, directed), func(t *testing.T) {
				runModelScript(t, seed, directed)
			})
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		for _, directed := range []bool{false, true} {
			t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
				runModelConcurrent(t, 7, directed)
			})
		}
	})
}

// modelScriptSteps is how many steps each seed's script takes.
const modelScriptSteps = 120

func runModelScript(t *testing.T, seed int64, directed bool) {
	const name = "m"
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{DataDir: t.TempDir()}
	lim := limits{workers: 1, snapshotEvery: 4 + rng.Intn(8)}.orDefaults()
	reg := newRegistry(cfg, lim)
	t.Cleanup(func() { reg.Close() })
	m := randomModel(rng, 24+rng.Intn(24), directed)

	var e *Entry
	load := func(label string) {
		t.Helper()
		var err error
		if e, err = reg.Load(m.spec(name)); err != nil {
			t.Fatalf("%s: load: %v", label, err)
		}
		if info := waitState(t, e); info.State != StateReady {
			t.Fatalf("%s: load: state %s (%s)", label, info.State, info.Error)
		}
	}
	// read checks what the entry serves against the model and returns the
	// scores and the epoch.
	read := func(label string) ([]float64, uint64) {
		t.Helper()
		bc, err := e.BC()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m.check(t, label, bc)
		info := e.Info()
		if info.State != StateReady || info.Verts != m.n || info.Edges != int64(len(m.edges)) ||
			info.Directed != m.directed || info.Threshold != m.threshold {
			t.Fatalf("%s: info %+v, the model has n=%d, %d edges, directed=%v, threshold %d",
				label, info, m.n, len(m.edges), m.directed, m.threshold)
		}
		top, _, _, err := e.TopKCoalesced(5)
		if err != nil {
			t.Fatalf("%s: top-K: %v", label, err)
		}
		for _, vs := range top {
			if math.Float64bits(vs.Score) != math.Float64bits(bc[vs.Vertex]) {
				t.Fatalf("%s: top-K has bc[%d] = %v, the scores %v", label, vs.Vertex, vs.Score, bc[vs.Vertex])
			}
		}
		return bc, info.Epoch
	}
	// restart closes the registry and recovers its data directory in a new
	// one. A crash recovers a copy of the directory taken first instead, which
	// is the disk as a SIGKILL would leave it: every ack fsynced, nothing
	// flushed. It reports whether that copy had a WAL tail to replay.
	restart := func(label string, crash bool) (walTail bool) {
		t.Helper()
		dir := cfg.DataDir
		if crash {
			dir = crashCopy(t, cfg.DataDir)
			fi, err := os.Stat(filepath.Join(dir, name, walFile))
			walTail = err == nil && fi.Size() > 0
		}
		reg.Close()
		cfg.DataDir = dir
		reg = newRegistry(cfg, lim)
		names, err := reg.Recover()
		if err != nil {
			t.Fatalf("%s: recover: %v", label, err)
		}
		if e = reg.Get(name); e == nil {
			t.Fatalf("%s: recover brought back %v, not %q", label, names, name)
		}
		if info := waitState(t, e); info.State != StateReady {
			t.Fatalf("%s: recover: state %s (%s)", label, info.State, info.Error)
		}
		return walTail
	}

	load("load")
	scores, epoch := read("load")
	walTails := 0
	for step := 0; step < modelScriptSteps; step++ {
		label := fmt.Sprintf("seed %d step %d", seed, step)
		p := rng.Intn(20)
		switch {
		case p < 8: // one valid edit
			u, v, has := m.pair(rng)
			if res, err := reg.Mutate(e, !has, u, v); err != nil || !res.Applied {
				t.Fatalf("%s: add=%v %d-%d: %+v, %v", label, !has, u, v, res, err)
			}
			m.set(u, v, !has)
		case p < 11: // a burst of valid edits on distinct edges, sent at once
			type edit struct {
				u, v int32
				add  bool
			}
			burst := map[[2]int32]edit{}
			for k := 2 + rng.Intn(5); len(burst) < k; {
				u, v, has := m.pair(rng)
				burst[m.key(u, v)] = edit{u, v, !has}
			}
			var wg sync.WaitGroup
			for _, ed := range burst {
				wg.Add(1)
				go func(ed edit) {
					defer wg.Done()
					if res, err := reg.Mutate(e, ed.add, ed.u, ed.v); err != nil || !res.Applied {
						t.Errorf("%s: burst add=%v %d-%d: %+v, %v", label, ed.add, ed.u, ed.v, res, err)
					}
				}(ed)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for _, ed := range burst {
				m.set(ed.u, ed.v, ed.add)
			}
		case p < 15: // an invalid op: refused, and nothing moves
			u, v, add := invalidOp(rng, m)
			if _, err := reg.Mutate(e, add, u, v); err == nil {
				t.Fatalf("%s: invalid op add=%v %d-%d acknowledged", label, add, u, v)
			}
			bc, after := read(label)
			if after != epoch {
				t.Fatalf("%s: invalid op add=%v %d-%d moved the epoch %d -> %d", label, add, u, v, epoch, after)
			}
			assertSameBits(t, label+": scores after an invalid op", bc, scores)
			continue
		case p < 18: // restart, as after a crash or a clean shutdown
			crash := p < 17
			if restart(label, crash) {
				walTails++
			}
			got, _ := read(label + ": recovered")
			assertSameBits(t, label+": recovered vs the last acknowledged scores", got, scores)
			scores, epoch = got, e.Info().Epoch
			continue
		default: // unload, then reload the name with a new graph
			old := e
			if !reg.Unload(name) || reg.Get(name) != nil {
				t.Fatalf("%s: unload left the entry registered", label)
			}
			if _, err := reg.Mutate(old, true, 0, 1); err == nil {
				t.Fatalf("%s: a mutation of an unloaded graph was acknowledged", label)
			}
			if rng.Intn(2) == 0 {
				// An unloaded graph stays gone across a restart.
				reg.Close()
				reg = newRegistry(cfg, lim)
				if names, err := reg.Recover(); err != nil || len(names) != 0 {
					t.Fatalf("%s: recover after unload: %v, %v; want nothing", label, names, err)
				}
			}
			m = randomModel(rng, 24+rng.Intn(24), directed)
			load(label + ": reload")
		}
		bc, after := read(label)
		if after <= epoch && p < 11 {
			t.Fatalf("%s: an acknowledged edit left the epoch at %d", label, after)
		}
		scores, epoch = bc, after
	}
	if walTails == 0 {
		t.Fatalf("seed %d: no crash restart met a WAL tail, so replay went unchecked", seed)
	}
}

// invalidOp draws one of the four edits bcd must refuse: a duplicate insert,
// the removal of an absent edge, a self-loop, an out-of-range vertex.
func invalidOp(rng *rand.Rand, m *model) (u, v int32, add bool) {
	switch rng.Intn(4) {
	case 0:
		if len(m.edges) > 0 {
			e := m.sorted()[rng.Intn(len(m.edges))]
			return e[0], e[1], true
		}
		fallthrough
	case 1:
		for {
			if u, v, has := m.pair(rng); !has {
				return u, v, false
			}
		}
	case 2:
		u = int32(rng.Intn(m.n))
		return u, u, rng.Intn(2) == 0
	default:
		u, v = int32(rng.Intn(m.n)), []int32{-1, int32(m.n), int32(m.n) + 7}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		return u, v, rng.Intn(2) == 0
	}
}

// crashCopy copies a live data directory into a new one as a SIGKILL at some
// instant would leave it. A compaction renames the new snapshot in before it
// truncates the log, so each graph's WAL is read before its snapshot: either
// outcome of the race with a compaction is then a state some instant leaves.
func crashCopy(t *testing.T, dataDir string) string {
	t.Helper()
	out := t.TempDir()
	dirents, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		if err := os.Mkdir(filepath.Join(out, de.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{walFile, metaFile, snapshotFile} {
			data, err := os.ReadFile(filepath.Join(dataDir, de.Name(), f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(out, de.Name(), f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// runModelConcurrent puts a durable registry behind HTTP and runs readers
// beside mutators that fire bursts of edits. Each mutator owns its edges, so
// the final edge set does not depend on the interleaving.
func runModelConcurrent(t *testing.T, seed int64, directed bool) {
	const (
		name      = "c"
		mutators  = 3
		pairsEach = 6
		rounds    = 10
		burst     = 4
		readers   = 2
	)
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{DataDir: t.TempDir()}
	lim := limits{workers: 1, mutationQueue: 4, mutationBatch: 16}.orDefaults()
	reg := newRegistry(cfg, lim)
	t.Cleanup(func() { reg.Close() })
	// Hold the first batch until a second mutation queues behind it, so that
	// at least one drain coalesces.
	var once sync.Once
	reg.beforeMutate = func() {
		once.Do(func() {
			for deadline := time.Now().Add(10 * time.Second); reg.Get(name).pending.Load() < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	}
	ts := httptest.NewServer(New(reg, nil))
	t.Cleanup(ts.Close)
	base := ts.URL
	m := randomModel(rng, 60+rng.Intn(40), directed)
	loadAndWait(t, base, m.spec(name))

	own := make([][][2]int32, mutators)
	dealt := map[[2]int32]bool{}
	for i := 0; i < mutators*pairsEach; {
		u, v, _ := m.pair(rng)
		if k := m.key(u, v); !dealt[k] {
			dealt[k] = true
			own[i%mutators] = append(own[i%mutators], k)
			i++
		}
	}
	present := map[[2]int32]bool{} // each mutator writes only its own keys
	for k := range dealt {
		present[k] = m.edges[k]
	}
	var presentMu sync.Mutex

	stop := make(chan struct{})
	var rwg, mwg sync.WaitGroup
	var reads, overloads, coalesced atomic.Int64
	info := "/v1/graphs/" + name
	paths := []string{info, info + "/bc?top=5", info + "/bc?top=0", info + "/vertices/0", info + "/stats", "/v1/graphs", "/metrics"}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				resp, err := http.Get(base + path)
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d %s", path, resp.StatusCode, data)
					return
				}
				reads.Add(1)
				if path == info {
					var got EntryInfo
					if err := json.Unmarshal(data, &got); err != nil {
						t.Error(err)
						return
					}
					if got.Epoch < last {
						t.Errorf("GET %s: epoch went down, %d -> %d", path, last, got.Epoch)
						return
					}
					last = got.Epoch
				}
			}
		}()
	}
	for w := 0; w < mutators; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			wrng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for r := 0; r < rounds; r++ {
				keys := slices.Clone(own[w])
				wrng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				var bwg sync.WaitGroup
				for _, k := range keys[:burst] {
					bwg.Add(1)
					go func(k [2]int32) {
						defer bwg.Done()
						presentMu.Lock()
						has := present[k]
						presentMu.Unlock()
						method := "POST"
						if has {
							method = "DELETE"
						}
						url := fmt.Sprintf("%s/v1/graphs/%s/edges?from=%d&to=%d", base, name, k[0], k[1])
						req, _ := http.NewRequest(method, url, nil)
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Error(err)
							return
						}
						data, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusOK:
							var res MutationResult
							if err := json.Unmarshal(data, &res); err != nil || !res.Applied {
								t.Errorf("%s %v: 200 %s without applied", method, k, data)
								return
							}
							presentMu.Lock()
							present[k] = !has
							presentMu.Unlock()
							if res.Batched > 1 {
								coalesced.Add(1)
							}
						case http.StatusTooManyRequests:
							if resp.Header.Get("Retry-After") == "" {
								t.Errorf("%s %v: 429 without Retry-After", method, k)
							}
							overloads.Add(1)
						default:
							t.Errorf("%s %v: status %d %s, want 200 or 429", method, k, resp.StatusCode, data)
						}
					}(k)
				}
				bwg.Wait()
			}
		}(w)
	}
	mwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if reads.Load() == 0 {
		t.Fatal("no read completed beside the mutators")
	}
	if coalesced.Load() == 0 {
		t.Fatal("no ack shared its epoch with another")
	}
	t.Logf("%d reads, %d acks in shared epochs, %d overloads", reads.Load(), coalesced.Load(), overloads.Load())

	for k, has := range present {
		m.set(k[0], k[1], has)
	}
	final := fetchScores(t, base, name)
	m.check(t, "after the mutators quiesce", final)

	ts.Close()
	reg.Close()
	rec := newRegistry(cfg, lim)
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	e := rec.Get(name)
	if e == nil {
		t.Fatal("recover lost the graph")
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("recover: state %s (%s)", info.State, info.Error)
	}
	got, err := e.BC()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "recovered vs the quiesced scores", got, final)
}
