// Command bcbench regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic dataset stand-ins:
//
//	bcbench -table 1          # Table 1: the evaluation graphs
//	bcbench -table 2          # Table 2: execution time per algorithm
//	bcbench -table 3          # Table 3: search rate (MTEPS)
//	bcbench -table 4          # Table 4: decomposition shape
//	bcbench -figure 2         # Figure 2: articulation/leaf census
//	bcbench -figure 6         # Figure 6: speedup over serial
//	bcbench -figure 7         # Figure 7: redundancy breakdown
//	bcbench -figure 8         # Figure 8: APGRE time breakdown
//	bcbench -figure 9         # Figure 9: thread scaling, all algorithms
//	bcbench -figure 10        # Figure 10: APGRE thread scaling
//	bcbench -approx           # approximate BC: error vs speedup sweep
//	bcbench -engine           # kernel sweep: the per-unit rule vs lanes forced everywhere
//	bcbench -ext              # extensions: weighted, closeness, incremental
//	bcbench -all              # everything above, in paper order
//
// -scale multiplies dataset sizes (default 0.25 keeps a full -all run in
// minutes); -datasets and -algos filter; -workers sets the thread count for
// the fixed-thread tables (default GOMAXPROCS).
//
// bcbench prints text tables and nothing else. Measurements that back a
// performance claim come from the repository benchmark, `go run ./bench`
// (bench/README.md), which times every layer in fresh processes and verifies
// every answer it times.
//
// Profiling: -cpuprofile, -memprofile and -trace write the standard pprof/
// trace artifacts for the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/profiling"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate paper Table N (1-4)")
		figure     = flag.Int("figure", 0, "regenerate paper Figure N (2, 6-10)")
		all        = flag.Bool("all", false, "run every table and figure")
		scale      = flag.Float64("scale", 0.25, "dataset size multiplier")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count for fixed-thread experiments")
		datasets   = flag.String("datasets", "", "comma-separated dataset filter (default all)")
		algos      = flag.String("algos", "", "comma-separated algorithm filter (default all)")
		thresh     = flag.Int("threshold", 0, "APGRE decomposition threshold (0 = default)")
		ext        = flag.Bool("ext", false, "run the extension experiments (weighted, closeness, incremental)")
		approxExp  = flag.Bool("approx", false, "run the approximate-BC error-vs-speedup sweep")
		engineExp  = flag.Bool("engine", false, "run the kernel sweep: the per-unit kernel rule vs bit-parallel lanes forced on every unit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	prof, err := profiling.Start(*cpuprofile, *memprofile, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcbench: %v\n", err)
		os.Exit(1)
	}

	cfg := config{
		scale:     *scale,
		workers:   *workers,
		threshold: *thresh,
		datasets:  splitCSV(*datasets),
		algos:     splitCSV(*algos),
	}

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "bcbench: %s: %v\n", name, err)
		prof.Stop()
		os.Exit(1)
	}
	run := func(name string, fn func(config) error) {
		if err := fn(cfg); err != nil {
			fail(name, err)
		}
		fmt.Println()
	}

	ran := false
	if *all || *table == 1 {
		run("table1", table1)
		ran = true
	}
	if *all || *table == 4 {
		run("table4", table4)
		ran = true
	}
	if *all || *figure == 2 {
		run("figure2", figure2)
		ran = true
	}
	if *all || *figure == 7 {
		run("figure7", figure7)
		ran = true
	}
	if *all || *table == 2 || *table == 3 || *figure == 6 {
		// One measurement sweep feeds Table 2, Table 3 and Figure 6.
		want := map[string]bool{
			"t2": *all || *table == 2,
			"t3": *all || *table == 3,
			"f6": *all || *figure == 6,
		}
		run("tables2-3+figure6", func(c config) error { return timings(c, want) })
		ran = true
	}
	if *all || *figure == 8 {
		run("figure8", figure8)
		ran = true
	}
	if *all || *figure == 9 {
		run("figure9", figure9)
		ran = true
	}
	if *all || *figure == 10 {
		run("figure10", figure10)
		ran = true
	}
	if *all || *ext {
		run("extensions", extensions)
		ran = true
	}
	if *all || *approxExp {
		run("approx", approxExperiment)
		ran = true
	}
	if *all || *engineExp {
		run("engine", engineExperiment)
		ran = true
	}
	if !ran {
		prof.Stop()
		flag.Usage()
		os.Exit(2)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "bcbench: profiling: %v\n", err)
		os.Exit(1)
	}
}

func splitCSV(s string) map[string]bool {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	out := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out[p] = true
		}
	}
	return out
}
