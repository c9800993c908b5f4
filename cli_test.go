package repro

// End-to-end CLI tests: build each command once and drive it through its
// main flows, the way a user would.

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles all five commands into a shared temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "repro-cli")
		if cliErr != nil {
			return
		}
		for _, cmd := range []string{"bc", "bcstats", "graphgen", "bcbench", "bcd"} {
			out := filepath.Join(cliDir, cmd)
			c := exec.Command("go", "build", "-o", out, "./cmd/"+cmd)
			c.Dir = mustGetwd()
			if msg, err := c.CombinedOutput(); err != nil {
				cliErr = &cliBuildError{cmd, string(msg), err}
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatal(cliErr)
	}
	return cliDir
}

type cliBuildError struct {
	cmd, output string
	err         error
}

func (e *cliBuildError) Error() string {
	return "building " + e.cmd + ": " + e.err.Error() + "\n" + e.output
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return wd
}

func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	dir := buildCLIs(t)
	out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func runCLIExpectError(t *testing.T, name string, args ...string) string {
	t.Helper()
	dir := buildCLIs(t)
	out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got:\n%s", name, args, out)
	}
	return string(out)
}

// runCLIExit runs a command that must fail and returns its exit code and
// combined output.
func runCLIExit(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(buildCLIs(t), name), args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v, want a non-zero exit:\n%s", name, args, err, out)
	}
	return exit.ExitCode(), string(out)
}

func TestCLIGraphgenAndBC(t *testing.T) {
	tmp := t.TempDir()
	gpath := filepath.Join(tmp, "g.txt")
	out := runCLI(t, "graphgen", "-type", "social", "-n", "400", "-o", gpath)
	if !strings.Contains(out, "wrote graph") {
		t.Fatalf("graphgen output: %s", out)
	}
	out = runCLI(t, "bc", "-in", gpath, "-top", "5", "-v")
	for _, want := range []string{"apgre finished", "breakdown:", "rank"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bc output missing %q:\n%s", want, out)
		}
	}
	// Every algorithm runs on the same file.
	for _, algo := range []string{"serial", "preds", "succs", "locksyncfree", "async", "hybrid"} {
		out = runCLI(t, "bc", "-in", gpath, "-algo", algo, "-top", "1")
		if !strings.Contains(out, algo+" finished") {
			t.Fatalf("algo %s output:\n%s", algo, out)
		}
	}
}

func TestCLIBCMetrics(t *testing.T) {
	tmp := t.TempDir()
	gpath := filepath.Join(tmp, "g.bin")
	runCLI(t, "graphgen", "-type", "caveman", "-n", "40", "-communities", "4", "-o", gpath)
	if out := runCLI(t, "bc", "-in", gpath, "-metric", "closeness", "-top", "3"); !strings.Contains(out, "closeness") {
		t.Fatalf("closeness output:\n%s", out)
	}
	runCLIExpectError(t, "bc", "-in", gpath, "-metric", "nope")
	runCLIExpectError(t, "bc", "-in", filepath.Join(tmp, "missing.txt"))
	runCLIExpectError(t, "bc")
}

// TestCLIBCNegativeTop: a negative -top is a usage error (exit 2) for every
// metric, not a slice-bounds panic.
func TestCLIBCNegativeTop(t *testing.T) {
	tmp := t.TempDir()
	gpath := filepath.Join(tmp, "g.txt")
	runCLI(t, "graphgen", "-type", "path", "-n", "8", "-o", gpath)
	for _, metric := range []string{"bc", "closeness"} {
		code, out := runCLIExit(t, "bc", "-in", gpath, "-metric", metric, "-top", "-1")
		if code != 2 || !strings.Contains(out, "-top must be") || strings.Contains(out, "panic") {
			t.Fatalf("bc -metric %s -top -1: exit %d, want 2 naming -top:\n%s", metric, code, out)
		}
	}
}

// TestCLIClosenessRejectsWeighted: closeness counts hops, so a weighted graph
// is an error (exit 1), not hop-count farness. On 0-1 (1), 1-2 (1), 0-2 (100),
// 2-3 (1) vertex 0's weighted farness is 6 and its hop farness 4.
func TestCLIClosenessRejectsWeighted(t *testing.T) {
	wpath := filepath.Join(t.TempDir(), "w.txt")
	if err := os.WriteFile(wpath, []byte("0 1 1\n1 2 1\n0 2 100\n2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, directed := range []string{"-directed=false", "-directed=true"} {
		code, out := runCLIExit(t, "bc", "-in", wpath, "-weighted", directed, "-metric", "closeness")
		if code != 1 || !strings.Contains(out, "weighted graphs are not supported") || strings.Contains(out, "farness") {
			t.Fatalf("bc -weighted %s -metric closeness: exit %d, want 1 naming the weights:\n%s", directed, code, out)
		}
	}
}

// TestCLIClosenessRejectsBCFlags: -approx, -algo, -v and -threshold
// configure BC engines; with -metric closeness they are a usage error
// (exit 2), not silently ignored.
func TestCLIClosenessRejectsBCFlags(t *testing.T) {
	gpath := filepath.Join(t.TempDir(), "g.txt")
	runCLI(t, "graphgen", "-type", "path", "-n", "8", "-o", gpath)
	for _, extra := range [][]string{{"-approx"}, {"-algo", "serial"}, {"-algo", "succs"}, {"-v"}, {"-threshold", "8"}} {
		args := append([]string{"-in", gpath, "-metric", "closeness"}, extra...)
		if code, out := runCLIExit(t, "bc", args...); code != 2 || !strings.Contains(out, "-metric closeness") {
			t.Fatalf("bc %v: exit %d, want 2 naming -metric closeness:\n%s", args, code, out)
		}
	}
	if out := runCLI(t, "bc", "-in", gpath, "-metric", "closeness", "-algo", "apgre", "-top", "1"); !strings.Contains(out, "closeness finished") {
		t.Fatalf("bc -metric closeness -algo apgre:\n%s", out)
	}
}

// topRows returns the rows of the ranking table bc prints, split into
// fields (rank, vertex, score...).
func topRows(out string) [][]string {
	var rows [][]string
	inTable := false
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "----") {
			inTable = true
			continue
		}
		if f := strings.Fields(l); inTable && len(f) > 0 {
			rows = append(rows, f)
		}
	}
	return rows
}

// TestCLIBCWeighted: weights come from the file, not from the algorithm. On
// 0-1 (2), 1-2 (2), 0-2 (10) the heavy direct edge is bypassed, so the
// middle vertex — 1, or 2 in the 1-based DIMACS file, which bc prints
// 0-based — ranks first with BC 2. -weighted reads the weight column of the
// text formats; GraphML and JSON carry their weights with or without it.
// apgre and the serial reference print the same table, and a hop-count
// baseline exits 1 naming the weights instead of printing hop-count BC.
func TestCLIBCWeighted(t *testing.T) {
	tmp := t.TempDir()
	files := map[string]string{
		"w.txt": "0 1 2\n1 2 2\n0 2 10\n",
		"w.gr":  "p sp 3 6\na 1 2 2\na 2 1 2\na 2 3 2\na 3 2 2\na 1 3 10\na 3 1 10\n",
		"w.graphml": `<?xml version="1.0"?>
<graphml><key id="d0" for="edge" attr.name="weight" attr.type="double"/>
<graph edgedefault="undirected"><node id="0"/><node id="1"/><node id="2"/>
<edge source="0" target="1"><data key="d0">2</data></edge>
<edge source="1" target="2"><data key="d0">2</data></edge>
<edge source="0" target="2"><data key="d0">10</data></edge>
</graph></graphml>`,
		"w.json": `{"directed":false,"nodes":[{"id":0},{"id":1},{"id":2}],"links":[
{"source":0,"target":1,"weight":2},{"source":1,"target":2,"weight":2},{"source":0,"target":2,"weight":10}]}`,
	}
	for name, body := range files {
		wpath := filepath.Join(tmp, name)
		if err := os.WriteFile(wpath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		flagSets := [][]string{{"-weighted"}}
		if ext := filepath.Ext(name); ext == ".graphml" || ext == ".json" {
			flagSets = append(flagSets, nil)
		}
		for _, flags := range flagSets {
			args := slices.Concat([]string{"-in", wpath, "-top", "3"}, flags)
			var tables [][][]string
			for _, algo := range []string{"apgre", "serial"} {
				out := runCLI(t, "bc", append(args, "-algo", algo)...)
				rows := topRows(out)
				if !strings.Contains(out, algo+" finished") || len(rows) != 3 || rows[0][1] != "1" || rows[0][2] != "2.000" {
					t.Fatalf("%s %v -algo %s: want vertex 1 first with BC 2:\n%s", name, flags, algo, out)
				}
				tables = append(tables, rows)
			}
			if !slices.EqualFunc(tables[0], tables[1], slices.Equal) {
				t.Fatalf("%s %v: apgre printed %v, serial %v", name, flags, tables[0], tables[1])
			}
			code, out := runCLIExit(t, "bc", append(args, "-algo", "preds")...)
			if code != 1 || !strings.Contains(out, `"preds"`) || !strings.Contains(out, "weights") || strings.Contains(out, "rank") {
				t.Fatalf("%s %v -algo preds: exit %d, want 1 naming the weights:\n%s", name, flags, code, out)
			}
		}
	}
}

// TestCLIBCRejectsIgnoredFlags: a flag the chosen computation would drop is
// a usage error (exit 2) naming it. The baselines do not decompose, so -v
// and -threshold need -algo apgre; -approx is its own estimator, so it takes
// neither -v nor another -algo, nor both -pivots and -eps, and its -pivots,
// -eps and -seed mean nothing without it. Each flag still works where it
// applies.
func TestCLIBCRejectsIgnoredFlags(t *testing.T) {
	gpath := filepath.Join(t.TempDir(), "g.txt")
	runCLI(t, "graphgen", "-type", "path", "-n", "8", "-o", gpath)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "serial", "-v"}, "-v and -threshold"},
		{[]string{"-algo", "succs", "-threshold", "8"}, "-v and -threshold"},
		{[]string{"-algo", "hybrid", "-v", "-threshold", "8"}, "-v and -threshold"},
		{[]string{"-approx", "-algo", "serial"}, "-approx takes"},
		{[]string{"-approx", "-v"}, "-approx takes"},
		{[]string{"-approx", "-pivots", "8", "-eps", "0.01"}, "not both"},
		{[]string{"-pivots", "8"}, "apply to -approx only"},
		{[]string{"-eps", "0.01"}, "apply to -approx only"},
		{[]string{"-seed", "3"}, "apply to -approx only"},
		{[]string{"-metric", "closeness", "-seed", "1"}, "apply to -approx only"},
	} {
		args := append([]string{"-in", gpath}, tc.args...)
		if code, out := runCLIExit(t, "bc", args...); code != 2 || !strings.Contains(out, tc.want) || strings.Contains(out, "rank") {
			t.Fatalf("bc %v: exit %d, want 2 naming %q:\n%s", args, code, tc.want, out)
		}
	}
	for _, extra := range [][]string{{"-v", "-threshold", "8"}, {"-approx", "-threshold", "8", "-pivots", "8"}, {"-approx", "-pivots", "8", "-seed", "3"}} {
		args := append([]string{"-in", gpath, "-top", "1"}, extra...)
		if out := runCLI(t, "bc", args...); !strings.Contains(out, "finished") {
			t.Fatalf("bc %v:\n%s", args, out)
		}
	}
}

// TestCLIBCNamesFileIDs: bc names the vertices of an edge list by the file's
// own ids, not by the dense ids it assigns in first-appearance order.
func TestCLIBCNamesFileIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse.txt")
	if err := os.WriteFile(path, []byte("10 20\n20 30\n30 40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-weighted"}, {"-metric", "closeness"}} {
		args := append([]string{"-in", path, "-top", "2"}, extra...)
		rows := topRows(runCLI(t, "bc", args...))
		if len(rows) != 2 {
			t.Fatalf("bc %v: rows %v", args, rows)
		}
		if got := []string{rows[0][1], rows[1][1]}; !slices.Equal(got, []string{"20", "30"}) && !slices.Equal(got, []string{"30", "20"}) {
			t.Fatalf("bc %v: top two %v, want the file's 20 and 30", args, got)
		}
	}
}

func TestCLIBCStats(t *testing.T) {
	out := runCLI(t, "bcstats", "-dataset", "email-enron", "-scale", "0.05")
	for _, want := range []string{"articulation points:", "decomposition", "redundancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bcstats missing %q:\n%s", want, out)
		}
	}
	// Which kernel re-sweeps a sub-graph: email-enron's top at ×0.5 sweeps 462
	// vertices (lanes, inside the 64–819 band), its second 34 (scalar).
	out = runCLI(t, "bcstats", "-dataset", "email-enron", "-scale", "0.5", "-sample", "16")
	if rows := strings.Split(out, "\n"); !strings.HasSuffix(strings.TrimSpace(rowOf(rows, "1 ")), "lanes") ||
		!strings.HasSuffix(strings.TrimSpace(rowOf(rows, "2 ")), "scalar") {
		t.Fatalf("bcstats kernel column:\n%s", out)
	}
	var census metrics.GraphCensus
	if err := json.Unmarshal([]byte(runCLI(t, "bcstats", "-dataset", "email-enron", "-scale", "0.5", "-sample", "16", "-json")), &census); err != nil {
		t.Fatal(err)
	}
	if l := census.Decomposition.Largest; len(l) < 2 || l[0].Swept != 462 || !l[0].Lanes || l[1].Lanes {
		t.Fatalf("bcstats -json: largest sub-graphs %+v, want the 462-vertex top on lanes and the next one not", l)
	}
	if census.Decomposition.Threshold != 64 {
		t.Fatalf("bcstats -json: threshold %d, want the 64 Decompose applied when -threshold is unset", census.Decomposition.Threshold)
	}
	out = runCLI(t, "bcstats", "-dataset", "human-disease")
	if !strings.Contains(out, "human-disease") {
		t.Fatalf("bcstats human-disease:\n%s", out)
	}
	runCLIExpectError(t, "bcstats", "-dataset", "nope")
	runCLIExpectError(t, "bcstats")
}

// rowOf returns the first line that starts with prefix.
func rowOf(lines []string, prefix string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func TestCLIBCBench(t *testing.T) {
	out := runCLI(t, "bcbench", "-table", "4", "-scale", "0.05", "-datasets", "usa-roadny")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "usa-roadny") {
		t.Fatalf("bcbench output:\n%s", out)
	}
	runCLIExpectError(t, "bcbench") // no experiment selected
	// The record/-check ledger and the at-scale profile are gone: their flags
	// are unknown, not ignored.
	for _, args := range [][]string{
		{"-json", "x", "-table", "4"},
		{"-check", "a", "b"},
		{"-sched"},
		{"-atscale"},
		{"-rootbudget", "64", "-table", "4"},
		{"-graphdir", "x", "-table", "4"},
		{"-loadprobe", "x.bin"},
		{"-loadmode", "mmap", "-table", "4"},
	} {
		if out := runCLIExpectError(t, "bcbench", args...); !strings.Contains(out, "flag provided but not defined") {
			t.Fatalf("bcbench %v failed for another reason:\n%s", args, out)
		}
	}
}

func TestCLIGraphgenVariants(t *testing.T) {
	tmp := t.TempDir()
	for _, typ := range []string{"er", "ba", "grid", "tree", "star", "path", "cycle", "road", "web", "rmat"} {
		p := filepath.Join(tmp, typ+".txt")
		out := runCLI(t, "graphgen", "-type", typ, "-n", "64", "-o", p)
		if !strings.Contains(out, "wrote graph") {
			t.Fatalf("%s: %s", typ, out)
		}
	}
	// Dataset mode.
	p := filepath.Join(tmp, "ds.txt")
	runCLI(t, "graphgen", "-dataset", "usa-roadny", "-scale", "0.05", "-o", p)
	runCLIExpectError(t, "graphgen", "-type", "nope", "-o", p)
	runCLIExpectError(t, "graphgen", "-type", "er")
	runCLIExpectError(t, "graphgen", "-dataset", "nope", "-o", p)
}

// TestCLIBCDFlagsSayWhereItRuns: bcd's settings say where it runs — where it
// listens, what it writes and reads, what it loads first, how long it drains —
// and its bounds are constants. Each removed tuning flag is a usage error
// (exit 2); -addr names a port nothing can listen on, so a bcd that still
// took the flag fails with exit 1 instead of serving.
func TestCLIBCDFlagsSayWhereItRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "2"},
		{"-queue", "16"},
		{"-threshold", "8"},
		{"-snapshot-every", "256"},
		{"-mutation-queue", "128"},
		{"-mutation-batch", "64"},
		{"-retry-after", "1s"},
	} {
		args = append(args, "-addr", "127.0.0.1:-1")
		if code, out := runCLIExit(t, "bcd", args...); code != 2 || !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("bcd %v: exit %d, want 2 naming the flag:\n%s", args, code, out)
		}
	}
	out, _ := exec.Command(filepath.Join(buildCLIs(t), "bcd"), "-h").CombinedOutput()
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(name)[0])
		}
	}
	if want := []string{"addr", "data-dir", "drain", "load-root", "preload", "quiet"}; !slices.Equal(flags, want) {
		t.Fatalf("bcd -h lists %v, want %v", flags, want)
	}
}
