package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graphio"
)

// TestLoadRootConfinesHTTPPaths: under Config.LoadRoot, a path posted over
// HTTP opens only inside the root. An absolute path, one that climbs out with
// "..", and a symlink inside the root that points out of it are each a 403
// before any build is queued, so the graph outside is never loaded; a missing
// file is a 404. A relative path under the root loads ready, a .bin one
// through the sized reader, and the operator's Registry.Load is not confined.
func TestLoadRootConfinesHTTPPaths(t *testing.T) {
	base := t.TempDir()
	root := filepath.Join(base, "root")
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	g := lifecycleGraph(nil, nil)
	outside := filepath.Join(base, "outside.bin")
	for _, p := range []string{outside, filepath.Join(root, "g.bin")} {
		if err := graphio.SaveFile(p, "", g); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink("../outside.bin", filepath.Join(root, "link.bin")); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Config{LoadRoot: root})
	ts := httptest.NewServer(New(reg, nil))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	for i, tc := range []struct {
		path string
		code int
	}{
		{outside, http.StatusForbidden},
		{"../outside.bin", http.StatusForbidden},
		{"sub/../../outside.bin", http.StatusForbidden},
		{"link.bin", http.StatusForbidden},
		{"missing.bin", http.StatusNotFound},
	} {
		name := "refused" + string(rune('a'+i))
		var body errorBody
		if code := do(t, "POST", ts.URL+"/v1/graphs", LoadSpec{Name: name, Path: tc.path}, &body); code != tc.code ||
			!strings.Contains(body.Error, "not a file under the load root") {
			t.Errorf("load %q: %d %q, want %d refusing it", tc.path, code, body.Error, tc.code)
		}
		if reg.Get(name) != nil {
			t.Errorf("load %q: refused, yet %s is registered", tc.path, name)
		}
	}
	for series, v := range scrapeMetrics(t, ts.URL) {
		if strings.HasPrefix(series, "bcd_load_jobs_total") && v != 0 {
			t.Errorf("%s = %v after refused loads only; a refused path queues no build", series, v)
		}
	}

	for _, p := range []string{"g.bin", "sub/../g.bin"} {
		name := strings.NewReplacer("/", "_", "..", "up").Replace(p)
		loadAndWait(t, ts.URL, LoadSpec{Name: name, Path: p})
		assertBitIdentical(t, "loaded under the root as "+p, fetchScores(t, ts.URL, name), g)
	}

	// The operator's own load names any path.
	e, err := reg.Load(LoadSpec{Name: "operator", Path: outside})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitState(t, e); info.State != StateReady {
		t.Fatalf("Registry.Load of %s under a load root: %s (%s)", outside, info.State, info.Error)
	}

	// Without a root an absolute path loads as it always has.
	open, _ := newTestServer(t)
	loadAndWait(t, open.URL, LoadSpec{Name: "abs", Path: outside})
	assertBitIdentical(t, "an absolute path with no load root", fetchScores(t, open.URL, "abs"), g)
}
