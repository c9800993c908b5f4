package server

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// triangleSpec is the smallest useful inline load.
func triangleSpec(name string) LoadSpec {
	return LoadSpec{Name: name, Edges: [][2]int32{{0, 1}, {1, 2}, {2, 0}}}
}

// waitState polls until the entry leaves StateLoading.
func waitState(t *testing.T, e *Entry) EntryInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info := e.Info()
		if info.State != StateLoading {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("graph %q still loading after 30s", e.Name())
	return EntryInfo{}
}

func TestRegistryLoadLifecycle(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()

	e, err := r.Load(triangleSpec("tri"))
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, e)
	if info.State != StateReady {
		t.Fatalf("state = %s (%s), want ready", info.State, info.Error)
	}
	if info.Verts != 3 || info.Edges != 3 {
		t.Fatalf("info = %+v, want 3 verts / 3 edges", info)
	}
	bc, err := e.BC()
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range bc {
		if s != 0 {
			t.Fatalf("triangle bc[%d] = %v, want 0", v, s)
		}
	}
	if n := r.NumReady(); n != 1 {
		t.Fatalf("NumReady = %d, want 1", n)
	}
	if !r.Unload("tri") {
		t.Fatal("unload reported missing")
	}
	if r.Get("tri") != nil {
		t.Fatal("entry survived unload")
	}
	if r.Unload("tri") {
		t.Fatal("double unload reported success")
	}
}

func TestRegistryLoadValidation(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()

	cases := []struct {
		name string
		spec LoadSpec
		want string
	}{
		{"bad name", LoadSpec{Name: "no spaces!", Dataset: "email-enron"}, "invalid graph name"},
		{"empty name", LoadSpec{Dataset: "email-enron"}, "invalid graph name"},
		{"no source", LoadSpec{Name: "empty"}, "needs one of"},
	}
	for _, tc := range cases {
		if _, err := r.Load(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// Conflicts are typed so the HTTP layer can answer 409.
	if _, err := r.Load(triangleSpec("dup")); err != nil {
		t.Fatal(err)
	}
	_, err := r.Load(triangleSpec("dup"))
	if _, ok := err.(*ConflictError); !ok {
		t.Fatalf("duplicate load: err = %v, want ConflictError", err)
	}

	// A bad source fails asynchronously: the entry lands in StateFailed with
	// the cause, and stays queryable-as-failed.
	e, err := r.Load(LoadSpec{Name: "ghost", Dataset: "no-such-dataset"})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, e)
	if info.State != StateFailed || !strings.Contains(info.Error, "unknown dataset") {
		t.Fatalf("info = %+v, want failed/unknown dataset", info)
	}
	if _, err := e.BC(); err == nil {
		t.Fatal("BC on failed entry succeeded")
	}
}

func TestRegistryBoundedQueue(t *testing.T) {
	r := NewRegistry(Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	r.beforeBuild = func() {
		started <- struct{}{}
		<-gate
	}

	// First job occupies the single worker; second fills the queue; third
	// must be rejected rather than buffered without bound.
	if _, err := r.Load(triangleSpec("a")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Load(triangleSpec("b")); err != nil {
		t.Fatal(err)
	}
	_, err := r.Load(triangleSpec("c"))
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("err = %v, want queue full", err)
	}

	close(gate)
	r.Close()

	// After shutdown, loads are refused and nothing is left loading: the
	// queued job either completed or was aborted by Close.
	if _, err := r.Load(triangleSpec("d")); err == nil {
		t.Fatal("load accepted after Close")
	}
	for _, name := range []string{"a", "b"} {
		e := r.Get(name)
		if e == nil {
			t.Fatalf("entry %q vanished", name)
		}
		if st := e.Info().State; st == StateLoading {
			t.Fatalf("entry %q still loading after Close", name)
		}
	}
}

func TestRegistryCloseAbortsQueued(t *testing.T) {
	r := NewRegistry(Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	r.beforeBuild = func() {
		started <- struct{}{}
		<-gate
	}
	if _, err := r.Load(triangleSpec("running")); err != nil {
		t.Fatal(err)
	}
	<-started
	eq, err := r.Load(triangleSpec("queued"))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		r.Close()
		close(done)
	}()
	// Wait until Close has actually canceled the job context before letting
	// the in-flight build proceed — otherwise the worker could drain both
	// jobs normally before Close gets scheduled.
	for r.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	// Shutdown aborts are StateAborted, NOT StateFailed: job polling must be
	// able to tell "the server went down" from "your graph didn't build".
	info := waitState(t, eq)
	if info.State != StateAborted {
		t.Fatalf("queued job state = %s, want aborted (shutdown, not failure)", info.State)
	}
	if !strings.Contains(info.Error, "shutdown") {
		t.Fatalf("abort reason %q does not name shutdown", info.Error)
	}
}

func TestRegistryLoadRejectsTraversalNames(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	// "." and ".." match the name charset but would escape DataDir when
	// joined into a durable path.
	for _, name := range []string{".", ".."} {
		spec := triangleSpec(name)
		if _, err := r.Load(spec); err == nil || !strings.Contains(err.Error(), "invalid graph name") {
			t.Fatalf("name %q: err = %v, want invalid graph name", name, err)
		}
	}
}

func TestRegistryOverloadTyped(t *testing.T) {
	r := NewRegistry(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	r.beforeBuild = func() {
		started <- struct{}{}
		<-gate
	}
	defer func() {
		close(gate)
		r.Close()
	}()
	if _, err := r.Load(triangleSpec("a")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Load(triangleSpec("b")); err != nil {
		t.Fatal(err)
	}
	_, err := r.Load(triangleSpec("c"))
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("err = %T %v, want *OverloadError", err, err)
	}
	if overload.Op != "build" || overload.RetryAfter != 2*time.Second {
		t.Fatalf("overload = %+v, want build op with 2s retry", overload)
	}
}

func TestBuildGraphInlineEdges(t *testing.T) {
	g, err := buildGraph(LoadSpec{Edges: [][2]int32{{0, 5}}, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || !g.Directed() {
		t.Fatalf("got %v, want 6 directed vertices", g)
	}
	if _, err := buildGraph(LoadSpec{Edges: [][2]int32{{-1, 2}}}); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

// TestRegistryRejectsHostileInlineN: an inline n outside [0, 2³¹] is a typed
// error at Load, before anything is queued or registered — n = 2⁶² used to
// reach graph.NewFromEdges in the build worker and panic the daemon.
func TestRegistryRejectsHostileInlineN(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	for _, n := range []int{1 << 62, 1<<31 + 1, -1} {
		spec := LoadSpec{Name: "huge", N: n, Edges: [][2]int32{{0, 1}}}
		_, err := r.Load(spec)
		var count *vertexCountError
		if !errors.As(err, &count) || count.N != n {
			t.Fatalf("n=%d: err = %v, want a vertexCountError", n, err)
		}
		if r.Get("huge") != nil {
			t.Fatalf("n=%d: the rejected spec was registered", n)
		}
	}
	e, err := r.Load(triangleSpec("after"))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("state after the rejections = %s (%s), want ready", info.State, info.Error)
	}
}

// TestRunBuildRecoversPanic: a build that panics — here the n Load rejects,
// handed to the worker directly — fails its own entry with the panic's text,
// and the registry goes on building.
func TestRunBuildRecoversPanic(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.Close()
	e := &Entry{name: "boom", state: StateLoading}
	r.runBuild(buildJob{e: e, spec: LoadSpec{Name: "boom", N: 1 << 62, Edges: [][2]int32{{0, 1}}}})
	if info := e.Info(); info.State != StateFailed || !strings.Contains(info.Error, "panicked") ||
		!strings.Contains(info.Error, "makeslice") {
		t.Fatalf("info = %+v, want failed with the panic's text", info)
	}
	e2, err := r.Load(triangleSpec("after"))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e2); info.State != StateReady {
		t.Fatalf("state after the panic = %s (%s), want ready", info.State, info.Error)
	}
}
