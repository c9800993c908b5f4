// Command bench is the repository's benchmark: four named workloads, each
// generated from -seed, staged as a file, run cold in fresh child processes,
// verified against an independent oracle, and reported as the end-to-end and
// per-layer metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench -workload {social|road|scale|serve|all} -seed N [-out DIR]
//	go run ./bench -repeat 2 -out DIR          # two sets of runs, then compare
//	go run ./bench -compare A.json B.json
//
// The driver's form is `--workload W --seed N --seconds S --trace 0|1`; the
// last line of standard output is then one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// document is the result file.
type document struct {
	Schema    string             `json:"schema"`
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Bounds    map[string]float64 `json:"bounds"`
	Workloads []*wlResult        `json:"workloads"`
	Correct   bool               `json:"correct"`
	// Claim stays null: defining the benchmark claims no gain. A later issue
	// names its claim as metric × workload from BENCHMARK.json.
	Claim *string `json:"claim"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	if len(args) == 2 && args[0] == "-child" {
		return childMain(args[1])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "social | road | scale | serve | all")
		seed     = fs.Int64("seed", 1, "seed of the generators and the edit script; the program under test sees only the staged file")
		secs     = fs.Float64("seconds", runSeconds, "how long the timed repetitions of one workload run")
		trace    = fs.Int("trace", 2, "0: untraced repetitions, end-to-end metrics; 1: traced run, per-layer metrics; 2: both")
		out      = fs.String("out", "", "directory for result.json and trace.json (none written when empty)")
		work     = fs.String("work", ".bench_work", "scratch directory for staged graphs and data dirs; emptied on exit")
		repeat   = fs.Int("repeat", 1, "make this many complete sets of runs; with 2, compare them (needs -out)")
		compare  = fs.Bool("compare", false, "compare the two result files given as arguments and exit")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
		corrupt  = fs.Bool("corrupt", false, "self-test: perturb the first child's answer; the run must then exit non-zero")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else {
		names = []string{*name}
	}
	if *repeat > 1 && *out == "" {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs -out")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	var files []string
	for i := 1; i <= *repeat; i++ {
		r := &runner{exe: exe, nproc: runtime.NumCPU(), seed: *seed, seconds: *secs, trace: *trace, corrupt: *corrupt}
		doc, err := r.runAll(names, *work, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !doc.Correct {
			code = 1
		}
		if *out != "" {
			file := "result.json"
			if *repeat > 1 {
				file = fmt.Sprintf("result-%d.json", i)
			}
			files = append(files, filepath.Join(*out, file))
			if err := writeResults(*out, file, doc, r.spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	if *repeat == 2 {
		if c := compareFiles(files[0], files[1], os.Stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runAll runs the named workloads in a fresh scratch directory, prints one
// line per metric and, last, the summary object.
func (r *runner) runAll(names []string, work string, stdout io.Writer) (*document, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(work) // only succeeds once no other invocation is using it
	}()
	if r.work, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	doc := &document{Schema: "repro-bench/v1", Env: readEnvironment(), Seed: r.seed,
		Seconds: r.seconds, Trace: r.trace, Bounds: map[string]float64{}, Correct: true}
	for _, m := range endToEnd {
		doc.Bounds[m.Name] = m.Bound
	}
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		res, err := r.runWorkload(w)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, res)
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", name, f)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "bench: %s: note: %s\n", name, n)
		}
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		emit := func(defs []metricDef, from map[string]metric) {
			for _, def := range defs {
				m, ok := from[def.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(stdout, "%s %s %v %s %d\n", name, def.Name, m.Value, m.Unit, m.N)
				key := def.Name
				if len(names) > 1 {
					key = name + "." + def.Name
				}
				summary.Metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
		if r.trace != 1 {
			emit(endToEnd, res.EndToEnd)
		}
		if r.trace != 0 {
			emit(perLayer, res.PerLayer)
		}
	}
	doc.Correct = summary.Failed == 0
	summary.Correct = doc.Correct
	line, err := json.Marshal(summary)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return doc, nil
}

// writeResults writes the result file and the spans of every traced child.
func writeResults(dir, file string, doc *document, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, file), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Run < spans[j].Run })
	if raw, err = json.Marshal(spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(raw, '\n'), 0o644)
}
