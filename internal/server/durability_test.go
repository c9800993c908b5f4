package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// lifecycleSpec is the standard durable-test load; bigSnapshotEvery keeps
// the build-time snapshot in place so recovery genuinely replays the WAL.
const bigSnapshotEvery = 1 << 20

func durableRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	return newRegistry(Config{DataDir: dir}, limits{snapshotEvery: bigSnapshotEvery}.orDefaults())
}

func loadLifecycle(t *testing.T, r *Registry, name string) *Entry {
	t.Helper()
	e, err := r.Load(LoadSpec{Name: name, N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("load %q: state %s (%s)", name, info.State, info.Error)
	}
	return e
}

// TestKillAndRecover is the crash-recovery proof: mutate a durable graph,
// abandon the registry WITHOUT Close (the kill -9 analogue — acknowledged
// mutations are already fsynced to the WAL, nothing else is flushed), then
// recover from disk in a fresh registry. The recovered scores must be
// bit-identical to what was served before the kill and to a fresh computation
// of the mutated graph, and the recovered entry must show zero engine-replayed
// mutations: recovery is one decomposition of snapshot+WAL, not a re-run of
// history.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	e1 := loadLifecycle(t, r1, "kill")

	// A burst touching both mutation paths: local chord, structural
	// cross-component insert, local leaf removal.
	muts := []struct {
		add  bool
		u, v int32
	}{
		{true, 1, 3},
		{true, 9, 4},
		{false, 0, 7},
	}
	for _, m := range muts {
		res, err := r1.Mutate(e1, m.add, m.u, m.v)
		if err != nil {
			t.Fatalf("mutate %+v: %v", m, err)
		}
		if !res.Applied {
			t.Fatalf("mutate %+v acknowledged without Applied", m)
		}
	}
	served, err := e1.BC()
	if err != nil {
		t.Fatal(err)
	}
	// Every Mutate above returned only after its WAL append fsynced, so the
	// full burst is durable. Abandon r1 here — no Close, no final snapshot.

	// The WAL (not the snapshot) must carry the burst, or this test would
	// pass without exercising replay.
	if fi, err := os.Stat(filepath.Join(dir, "kill", walFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("wal.log missing or empty before recovery (err=%v)", err)
	}

	r2 := durableRegistry(t, dir)
	defer r2.Close()
	names, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "kill" {
		t.Fatalf("recovered %v, want [kill]", names)
	}
	e2 := r2.Get("kill")
	if e2 == nil {
		t.Fatal("recovered entry not registered")
	}
	info := waitState(t, e2)
	if info.State != StateReady {
		t.Fatalf("recovered state %s (%s)", info.State, info.Error)
	}
	if info.Threshold != lifecycleThreshold {
		t.Fatalf("recovered threshold %d, want %d (meta.json lost it)", info.Threshold, lifecycleThreshold)
	}
	// One decomposition of the final state — not a replay of the mutation
	// history through the engine.
	if info.LocalUpdates != 0 || info.FullRebuilds != 0 {
		t.Fatalf("recovery replayed mutations through the engine: %d local / %d rebuilds",
			info.LocalUpdates, info.FullRebuilds)
	}

	got, err := e2.BC()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "recovered scores vs the ones served before the kill", got, served)
	assertBitIdentical(t, "recovered scores",
		got, lifecycleGraph([][2]int32{{1, 3}, {9, 4}}, [][2]int32{{0, 7}}))
}

// TestRecoverTornWALTail: garbage appended to the WAL (a torn write from the
// crash) must not poison recovery — replay stops at the last intact record.
func TestRecoverTornWALTail(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	e1 := loadLifecycle(t, r1, "torn")
	if _, err := r1.Mutate(e1, true, 1, 3); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "torn", walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{walOpInsert, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2 := durableRegistry(t, dir)
	defer r2.Close()
	if _, err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	e2 := r2.Get("torn")
	info := waitState(t, e2)
	if info.State != StateReady {
		t.Fatalf("recovered state %s (%s)", info.State, info.Error)
	}
	got, err := e2.BC()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "recovered scores after torn tail",
		got, lifecycleGraph([][2]int32{{1, 3}}, nil))
}

// TestRecoverRejectsDamagedSnapshot: a snapshot whose CSR no longer
// describes one undirected graph must fail recovery with a DurabilityError.
// Vertex 0's row is [1 3 7]; rewriting its first word to 2 keeps the row
// sorted and in range but leaves arc 0→2 without its mirror (and 1→0
// without its own), which an edge-list rebuild would accept as a different
// graph.
func TestRecoverRejectsDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	loadLifecycle(t, r1, "dmg")
	r1.Close()

	snap := filepath.Join(dir, "dmg", snapshotFile)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// v2 layout: 28-byte header, one uint32 degree per vertex, then rows.
	row0 := 28 + 4*lifecycleN
	if got := binary.LittleEndian.Uint32(data[row0:]); got != 1 {
		t.Fatalf("snapshot row 0 starts with %d, want neighbour 1", got)
	}
	binary.LittleEndian.PutUint32(data[row0:], 2)
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := durableRegistry(t, dir)
	defer r2.Close()
	names, err := r2.Recover()
	var derr *DurabilityError
	if !errors.As(err, &derr) {
		t.Fatalf("Recover = %v, %v; want a DurabilityError", names, err)
	}
	if !strings.Contains(derr.Name, "dmg") {
		t.Fatalf("error does not name the graph directory: %v", derr)
	}
}

// TestRefusedBatchLeavesTheWAL: a batch the engine refuses as a whole is
// truncated back out of the WAL before it is answered. The fixture is a
// width-2 ladder of 1,024 layers between two apexes, its last apex arc left
// out (2^1023 apex-to-apex paths, finite); the insert that completes it would
// make 2^1024, past float64, so ApplyBatch refuses it. Recovering the disk as
// a crash right after the refusal leaves it must serve the pre-edit graph,
// not replay the refused op into a failed entry.
func TestRefusedBatchLeavesTheWAL(t *testing.T) {
	const layers = 1024
	far := int32(2*layers + 1)
	edges := [][2]int32{{0, 1}, {0, 2}, {far - 2, far}}
	for j := int32(0); j < layers-1; j++ {
		for _, a := range []int32{1 + 2*j, 2 + 2*j} {
			edges = append(edges, [2]int32{a, 3 + 2*j}, [2]int32{a, 4 + 2*j})
		}
	}
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	defer r1.Close()
	e1, err := r1.Load(LoadSpec{Name: "ladder", N: int(far) + 1, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e1); info.State != StateReady {
		t.Fatalf("ladder load: state %s (%s)", info.State, info.Error)
	}
	if _, err := r1.Mutate(e1, true, far-1, far); !errors.Is(err, graph.ErrPathCountOverflow) {
		t.Fatalf("completing the ladder: %v, want ErrPathCountOverflow", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "ladder", walFile)); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		t.Errorf("the refused batch left %d bytes in the WAL", fi.Size())
	}

	r2 := durableRegistry(t, crashCopy(t, dir))
	defer r2.Close()
	if _, err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	info := waitState(t, r2.Get("ladder"))
	if info.State != StateReady {
		t.Fatalf("recovered state %s (%s)", info.State, info.Error)
	}
	got, err := r2.Get("ladder").BC()
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]graph.Edge, len(edges))
	for i, e := range edges {
		pre[i] = graph.Edge{From: e[0], To: e[1]}
	}
	fresh, err := core.NewIncremental(graph.NewFromEdges(int(far)+1, pre, false), core.Options{Threshold: info.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "recovered ladder vs a fresh NewIncremental of the pre-edit graph", got, fresh.BC())
}

// TestCleanCloseCompactsWAL: a graceful Close writes a final snapshot and
// truncates the WAL, so the next start replays nothing — and serves what was
// served before the Close, bit for bit.
func TestCleanCloseCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	e1 := loadLifecycle(t, r1, "clean")
	if _, err := r1.Mutate(e1, true, 1, 3); err != nil {
		t.Fatal(err)
	}
	served, err := e1.BC()
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()

	if fi, err := os.Stat(filepath.Join(dir, "clean", walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal.log not truncated by clean shutdown (size=%v err=%v)", fi, err)
	}
	r2 := durableRegistry(t, dir)
	defer r2.Close()
	if _, err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	e2 := r2.Get("clean")
	info := waitState(t, e2)
	if info.State != StateReady {
		t.Fatalf("recovered state %s (%s)", info.State, info.Error)
	}
	got, err := e2.BC()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "recovered scores vs the ones served before Close", got, served)
	assertBitIdentical(t, "recovered scores after clean close",
		got, lifecycleGraph([][2]int32{{1, 3}}, nil))
}

// TestSnapshotCompaction: once the WAL passes SnapshotEvery records the
// worker rewrites the snapshot and truncates the log, keeping recovery cost
// bounded.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	r := newRegistry(Config{DataDir: dir}, limits{workers: 1, snapshotEvery: 2, mutationBatch: 1}.orDefaults())
	defer r.Close()
	e := loadLifecycle(t, r, "compact")
	for i, m := range []struct {
		add  bool
		u, v int32
	}{{true, 1, 3}, {false, 1, 3}, {true, 1, 3}, {false, 1, 3}} {
		if _, err := r.Mutate(e, m.add, m.u, m.v); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	// 4 records at SnapshotEvery=2: at least one compaction must run,
	// leaving fewer than 2 records in the log. Mutations are acknowledged
	// BEFORE the worker compacts (acks must not wait on a snapshot write),
	// so poll rather than stat once.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fi, err := os.Stat(filepath.Join(dir, "compact", walFile))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < 2*walRecordSize {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wal.log still holds %d bytes (>= %d) 10s after the last ack: compaction never ran",
				fi.Size(), 2*walRecordSize)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUnloadRemovesDurableDir: unload deletes the graph's durable directory,
// so it does not resurrect on the next Recover.
func TestUnloadRemovesDurableDir(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir)
	defer r.Close()
	loadLifecycle(t, r, "gone")
	gdir := filepath.Join(dir, "gone")
	if _, err := os.Stat(gdir); err != nil {
		t.Fatalf("durable dir missing before unload: %v", err)
	}
	if !r.Unload("gone") {
		t.Fatal("unload reported missing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(gdir); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("durable dir still present 10s after unload")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDecodeWALTornTail covers the frame-level corruption cases directly.
func TestDecodeWALTornTail(t *testing.T) {
	var buf []byte
	ops := []core.EdgeOp{{Add: true, U: 1, V: 2}, {Add: false, U: 3, V: 4}}
	for _, op := range ops {
		buf = appendWALRecord(buf, op)
	}

	got, truncated, err := decodeWAL(buf)
	if err != nil || truncated || len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("intact decode = %v truncated=%v err=%v", got, truncated, err)
	}

	// Short tail: a partial third record.
	short := append(append([]byte(nil), buf...), walOpInsert, 9, 9)
	if got, truncated, _ := decodeWAL(short); !truncated || len(got) != 2 {
		t.Fatalf("short-tail decode = %d ops truncated=%v, want 2/true", len(got), truncated)
	}

	// Bit flip inside the second record: CRC must stop replay after the
	// first.
	flipped := append([]byte(nil), buf...)
	flipped[walRecordSize+3] ^= 0xff
	if got, truncated, _ := decodeWAL(flipped); !truncated || len(got) != 1 {
		t.Fatalf("bit-flip decode = %d ops truncated=%v, want 1/true", len(got), truncated)
	}

	// Unknown op byte.
	bad := append([]byte(nil), buf...)
	bad[walRecordSize] = 0x7f
	if got, truncated, _ := decodeWAL(bad); !truncated || len(got) != 1 {
		t.Fatalf("bad-op decode = %d ops truncated=%v, want 1/true", len(got), truncated)
	}
}

// TestReplayMatchesApplyBatch: WAL replay and the live engine share one edit
// semantics (core.StageEdits), so a script replayed onto a graph gives, bit
// for bit, the graph ApplyBatch leaves, whether the script is one batch or
// one op at a time, and skips the same ops. The script holds every kind of op
// the engine refuses, an insert-then-remove and an edge removed then put back,
// and removes the one edge of two vertices, which the graph keeps isolated
// beside the one it started with. The replayed graph (graph.Splice's, from the
// base) is the script's final edge set as NewFromEdges builds it, row by row,
// which with equal arc counts is offset by offset too (internal/graph's
// TestSpliceMatchesNewFromEdges compares the two CSRs' arrays themselves).
func TestReplayMatchesApplyBatch(t *testing.T) {
	for _, directed := range []bool{false, true} {
		base := graph.NewFromEdges(8, []graph.Edge{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 0}, {From: 6, To: 7},
		}, directed)
		script := []core.EdgeOp{
			{Add: true, U: 1, V: 0},  // duplicate of 0-1 undirected, a new arc directed
			{Add: true, U: 0, V: 1},  // duplicate either way
			{Add: false, U: 2, V: 4}, // absent
			{Add: true, U: 3, V: 3},  // self-loop
			{Add: true, U: 5, V: 8},  // out of range
			{Add: true, U: 2, V: 5},  // insert ...
			{Add: false, U: 2, V: 5}, // ... then remove
			{Add: false, U: 3, V: 4}, // remove ...
			{Add: true, U: 3, V: 4},  // ... then put back
			{Add: true, U: 1, V: 5},
			{Add: false, U: 4, V: 0},
			{Add: false, U: 6, V: 7}, // 6 and 7 left isolated, as 5 was
		}
		replayed := replayOps(base, script)
		final := []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 1, To: 5}}
		if directed {
			final = append(final, graph.Edge{From: 1, To: 0})
		}
		fresh := graph.NewFromEdges(8, final, directed)

		batch, err := core.NewIncremental(base, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		errs, err := batch.ApplyBatch(script)
		if err != nil {
			t.Fatal(err)
		}
		single, err := core.NewIncremental(base, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range script {
			one, err := single.ApplyBatch([]core.EdgeOp{op})
			if err != nil {
				t.Fatal(err)
			}
			if (one[0] == nil) != (errs[i] == nil) {
				t.Fatalf("directed=%v op %d %+v: alone err %v, in the batch err %v", directed, i, op, one[0], errs[i])
			}
		}
		skipped := 0
		for _, e := range errs {
			if e != nil {
				skipped++
			}
		}
		want := 4 // absent, self-loop, out of range, the second 0-1
		if !directed {
			want++ // 1-0 is 0-1
		}
		if skipped != want {
			t.Fatalf("directed=%v: ApplyBatch skipped %d ops, want %d: %v", directed, skipped, want, errs)
		}
		for name, g := range map[string]*graph.Graph{"NewFromEdges": fresh, "batch": batch.Graph(), "one at a time": single.Graph()} {
			if g.NumArcs() != replayed.NumArcs() {
				t.Fatalf("directed=%v %s: %d arcs, replay has %d", directed, name, g.NumArcs(), replayed.NumArcs())
			}
			if g.Directed() != replayed.Directed() || g.NumVertices() != replayed.NumVertices() {
				t.Fatalf("directed=%v %s: shape differs from the replay", directed, name)
			}
			for u := range g.NumVertices() {
				if !slices.Equal(g.Out(graph.V(u)), replayed.Out(graph.V(u))) {
					t.Fatalf("directed=%v %s: row %d is %v, replay has %v",
						directed, name, u, g.Out(graph.V(u)), replayed.Out(graph.V(u)))
				}
			}
		}
	}
	// A script that applies nothing replays to the graph itself.
	base := graph.NewFromEdges(3, []graph.Edge{{From: 0, To: 1}}, false)
	if got := replayOps(base, []core.EdgeOp{{Add: true, U: 1, V: 0}, {Add: false, U: 1, V: 2}}); got != base {
		t.Fatal("a script of refused ops rebuilt the graph")
	}
}

// TestMutationBurstCoalesces: N concurrent mutations while the worker is
// held at the gate must land in far fewer than N epoch publishes.
func TestMutationBurstCoalesces(t *testing.T) {
	r := newRegistry(Config{}, limits{workers: 1, mutationQueue: 64, mutationBatch: 64}.orDefaults())
	defer r.Close()
	gate := make(chan struct{})
	var once sync.Once
	r.beforeMutate = func() {
		// Hold only the first batch: everything sent meanwhile queues up and
		// is drained into it.
		once.Do(func() { <-gate })
	}

	// A 30-vertex path: chords {i, i+2} are all absent and all valid.
	const n = 30
	edges := make([][2]int32, 0, n-1)
	for i := int32(0); i < n-1; i++ {
		edges = append(edges, [2]int32{i, i + 1})
	}
	e, err := r.Load(LoadSpec{Name: "burst", N: n, Edges: edges, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}
	seq0 := e.Info().Epoch
	edges0 := e.Info().Edges

	const burst = 20
	var wg sync.WaitGroup
	results := make([]MutationResult, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Mutate(e, true, int32(i), int32(i+2))
		}(i)
	}
	// Let the burst queue up behind the gated first batch, then release.
	deadline := time.Now().Add(10 * time.Second)
	for int(e.pending.Load()) < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d mutations queued after 10s", e.pending.Load(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	maxBatched := 0
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("mutation %d: %v", i, errs[i])
		}
		if !results[i].Applied {
			t.Fatalf("mutation %d not applied", i)
		}
		if results[i].Batched > maxBatched {
			maxBatched = results[i].Batched
		}
	}
	info := e.Info()
	if info.Edges != edges0+burst {
		t.Fatalf("edges = %d, want %d", info.Edges, edges0+burst)
	}
	epochs := info.Epoch - seq0
	if epochs == 0 || epochs > 2 {
		t.Fatalf("burst of %d mutations published %d epochs, want 1-2 (coalesced)", burst, epochs)
	}
	if maxBatched < burst/2 {
		t.Fatalf("largest batch carried %d ops, want >= %d", maxBatched, burst/2)
	}
}

// TestOverloadAnswers429 drives the admission-control path over HTTP: with
// the worker held and the queue full, mutations get 429 + Retry-After (never
// 400/500) while reads keep being served from the epoch snapshot.
func TestOverloadAnswers429(t *testing.T) {
	reg := newRegistry(Config{}, limits{
		workers: 1, mutationQueue: 1, mutationBatch: 1,
		retryAfter: 3 * time.Second,
	}.orDefaults())
	gate := make(chan struct{})
	held := make(chan struct{}, 16)
	var once sync.Once
	reg.beforeMutate = func() {
		once.Do(func() {
			held <- struct{}{}
			<-gate
		})
	}
	ts := httptest.NewServer(New(reg, nil))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	base := ts.URL
	loadAndWait(t, base, LoadSpec{
		Name: "ovl", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold,
	})

	// First mutation occupies the worker (held at the gate)...
	type mutReply struct {
		code int
		body MutationResult
	}
	replies := make(chan mutReply, 2)
	sendMut := func(from, to int32) {
		var res MutationResult
		code := do(t, "POST", base+"/v1/graphs/ovl/edges", edgeRequest{From: from, To: to}, &res)
		replies <- mutReply{code, res}
	}
	go sendMut(1, 3)
	<-held
	// ...the second fills the depth-1 queue...
	go sendMut(9, 4)
	deadline := time.Now().Add(10 * time.Second)
	e := reg.Get("ovl")
	for e.pending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second mutation never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...and the third must be shed with 429 + Retry-After, not 400/500.
	req, _ := http.NewRequest("POST", base+"/v1/graphs/ovl/edges?from=9&to=3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded mutation got %d (%s), want 429", resp.StatusCode, body.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if !strings.Contains(body.Error, "queue full") {
		t.Fatalf("429 body %q does not explain the queue", body.Error)
	}

	// Reads bypass the mutation queue entirely: cached top-K stays serviced
	// while the worker is wedged.
	var top bcResponse
	if code := do(t, "GET", base+"/v1/graphs/ovl/bc?top=3", nil, &top); code != http.StatusOK {
		t.Fatalf("read during overload got %d, want 200", code)
	}
	if len(top.Top) != 3 {
		t.Fatalf("read during overload returned %d entries", len(top.Top))
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if rep := <-replies; rep.code != http.StatusOK || !rep.body.Applied {
			t.Fatalf("queued mutation finished %d (applied=%v), want 200/applied", rep.code, rep.body.Applied)
		}
	}
}

// TestMutateCanceledClient: a mutation whose client is already gone is
// answered 499 with an explicit applied=false, and nothing is written.
func TestMutateCanceledClient(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := New(reg, nil)
	e, err := reg.Load(LoadSpec{Name: "cancel", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}
	edgesBefore := e.Info().Edges

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/graphs/cancel/edges?from=1&to=3", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("canceled mutation got %d, want %d", w.Code, statusClientClosedRequest)
	}
	var body canceledBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad 499 body %q: %v", w.Body.Bytes(), err)
	}
	if body.Applied {
		t.Fatal("499 response claims the mutation was applied")
	}
	if after := e.Info().Edges; after != edgesBefore {
		t.Fatalf("canceled mutation changed the graph (%d -> %d edges)", edgesBefore, after)
	}
}

// TestTopKCoalescing: every top-K query on one epoch, whatever its k, shares
// one ranking; a mutation invalidates it by bumping the epoch seq.
func TestTopKCoalescing(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	e, err := r.Load(LoadSpec{Name: "co", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state %s (%s)", info.State, info.Error)
	}

	first, n1, hit1, err := e.TopKCoalesced(5)
	if err != nil || hit1 {
		t.Fatalf("first query: hit=%v err=%v, want miss", hit1, err)
	}
	second, n2, hit2, err := e.TopKCoalesced(5)
	if err != nil || !hit2 {
		t.Fatalf("second query: hit=%v err=%v, want hit", hit2, err)
	}
	if n1 != n2 || len(first) != len(second) {
		t.Fatalf("coalesced results diverge: n %d/%d len %d/%d", n1, n2, len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("coalesced result differs at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	// The epoch is ranked once: any other k slices the same ranking.
	for _, k := range []int{3, 0, lifecycleN + 7} {
		top, n, hit, err := e.TopKCoalesced(k)
		if err != nil || !hit {
			t.Fatalf("k=%d after the epoch's first ranked read: hit=%v err=%v, want hit", k, hit, err)
		}
		want := n // k <= 0 or k > n: every vertex
		if k > 0 && k < n {
			want = k
		}
		if len(top) != want {
			t.Fatalf("k=%d: %d entries of %d, want %d", k, len(top), n, want)
		}
		for i := range min(len(top), len(first)) {
			if top[i] != first[i] {
				t.Fatalf("k=%d differs from k=5 at %d: %+v vs %+v", k, i, top[i], first[i])
			}
		}
	}

	// Mutation publishes a new epoch: the cache must invalidate.
	if _, err := r.Mutate(e, true, 1, 3); err != nil {
		t.Fatal(err)
	}
	post, _, hit, err := e.TopKCoalesced(5)
	if err != nil || hit {
		t.Fatalf("post-mutation query: hit=%v err=%v, want miss", hit, err)
	}
	if len(post) != 5 {
		t.Fatalf("post-mutation top-5 has %d entries", len(post))
	}
}

// TestRankSlotOnlyRollsForward: a reader whose epoch a newer one has
// overtaken ranks its own epoch and leaves the newer ranking in the slot, so
// the newer epoch's next read is still a hit. Both ways a reader can be
// overtaken are covered: before it loads the slot, and between its load and
// its store.
func TestRankSlotOnlyRollsForward(t *testing.T) {
	var e Entry
	newer, older := []float64{1, 3, 2}, []float64{3, 1, 2}
	if _, hit := e.rankEpoch(6, newer); hit {
		t.Fatal("first read of epoch 6 reported a hit")
	}
	all, hit := e.rankEpoch(5, older)
	if hit || all[0].Vertex != 0 || all[1].Vertex != 2 {
		t.Fatalf("overtaken reader of epoch 5 got %+v (hit=%v), want its own epoch ranked", all, hit)
	}
	if seq := e.rank.Load().seq; seq != 6 {
		t.Fatalf("slot holds epoch %d after an overtaken read, want 6", seq)
	}
	if all, hit := e.rankEpoch(6, newer); !hit || all[0].Vertex != 1 {
		t.Fatalf("second read of epoch 6: %+v (hit=%v), want the stored ranking", all, hit)
	}

	// A reader of epoch 7 loads the slot (epoch 6); epoch 8 is stored before
	// the reader stores epoch 7 over what it loaded.
	seen := e.rank.Load()
	if r := e.slot(e.rank.Load(), 8); r.seq != 8 || e.rank.Load() != r {
		t.Fatalf("epoch 8 did not take the slot: %d", e.rank.Load().seq)
	}
	if r := e.slot(seen, 7); r.seq != 7 || e.rank.Load().seq != 8 {
		t.Fatalf("overtaken reader of epoch 7 got epoch %d and left epoch %d in the slot, want 7 and 8",
			r.seq, e.rank.Load().seq)
	}
}

// TestRankSlotConcurrentReaders: readers of many epochs, racing in no
// order, each get their own epoch's ranking; the slot ends on the newest
// epoch, which exactly one of its readers ranked.
func TestRankSlotConcurrentReaders(t *testing.T) {
	const n, epochs, readers, reads = 64, 12, 8, 60
	scores := make([][]float64, epochs+1)
	want := make([][]VertexScore, epochs+1)
	for seq := 1; seq <= epochs; seq++ {
		scores[seq] = make([]float64, n)
		for v := range scores[seq] {
			scores[seq][v] = float64(v * seq % 17)
			want[seq] = append(want[seq], VertexScore{Vertex: graph.V(v), Score: scores[seq][v]})
		}
		slices.SortFunc(want[seq], compareVertexScore)
	}
	var e Entry
	var newestMisses atomic.Int64
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reads {
				seq := 1 + (r*7+i*5)%epochs
				all, hit := e.rankEpoch(uint64(seq), scores[seq])
				if !slices.Equal(all, want[seq]) {
					t.Errorf("reader %d read %d: epoch %d ranked wrong", r, i, seq)
					return
				}
				if seq == epochs && !hit {
					newestMisses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if seq := e.rank.Load().seq; seq != epochs {
		t.Fatalf("slot ends on epoch %d, want %d", seq, epochs)
	}
	if m := newestMisses.Load(); m != 1 {
		t.Fatalf("the newest epoch was ranked %d times, want once", m)
	}
}

// TestReloadWhileUnloadStillDrops: Unload frees the name at once and deletes
// the durable directory behind the caller's back, after the entry's mutation
// worker has let go of the WAL. A load of the same name that arrives in
// between must not lose its files to that deletion (it used to: a cold
// load/unload loop failed now and then with "rename meta.json.tmp: no such
// file", or kept serving a graph whose directory was gone). The worker is held
// at the gate, so the deletion is still pending when the second load runs.
func TestReloadWhileUnloadStillDrops(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir)
	defer r.Close()
	gate, atGate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	r.beforeMutate = func() { once.Do(func() { close(atGate); <-gate }) }

	first := loadLifecycle(t, r, "again")
	held := make(chan error, 1)
	go func() {
		_, err := r.Mutate(first, true, 1, 3)
		held <- err
	}()
	<-atGate // the worker holds the mutation; it cannot exit before the gate opens
	if !r.Unload("again") {
		t.Fatal("unload failed")
	}
	second, err := r.Load(LoadSpec{Name: "again", N: lifecycleN, Edges: lifecycleEdges, Threshold: lifecycleThreshold})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the second build is now waiting for the drop, or has wrongly written
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("the held mutation: %v", err)
	}
	if info := waitState(t, second); info.State != StateReady {
		t.Fatalf("reload: state %s (%s)", info.State, info.Error)
	}
	<-first.mutDone
	for _, f := range []string{metaFile, snapshotFile, walFile} {
		if _, err := os.Stat(filepath.Join(dir, "again", f)); err != nil {
			t.Fatalf("the reloaded graph's %s: %v", f, err)
		}
	}
}

// TestUnloadedGraphStaysGoneAfterRestart: Close waits for an unloaded graph's
// directory removal. It used to return first, so a restart recovered the
// unloaded graph, or the removal deleted the files of the name's next load
// (TestRegistryMatchesModel's script, seeds 1–6, found both).
func TestUnloadedGraphStaysGoneAfterRestart(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir)
	e1 := loadLifecycle(t, r1, "gone")
	if _, err := r1.Mutate(e1, true, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !r1.Unload("gone") {
		t.Fatal("unload failed")
	}
	r1.Close()
	if _, err := os.Stat(filepath.Join(dir, "gone")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the unloaded graph's directory outlived Close (stat: %v)", err)
	}
	r2 := durableRegistry(t, dir)
	defer r2.Close()
	if names, err := r2.Recover(); err != nil || len(names) != 0 {
		t.Fatalf("recover after unload: %v, %v; want nothing", names, err)
	}
	loadLifecycle(t, r2, "gone")
}
