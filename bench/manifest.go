package main

import (
	"encoding/json"
	"io"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one invocation
// measures. The driver makes 4 + 22·4 = 92 runs inside 3420 s, so a whole
// run (set-up, oracle, measurement, verification) has to average under
// ~37 s; 12 s of measurement leaves room for three set-ups and the oracle.
const runSeconds = 12

// metricDef is one row of BENCHMARK.json's end_to_end / per_layer tables.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a later PR is rejected; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the driver's contract), so each is defined for batch and for
// serve alike — see README.md for the per-workload reading of wall_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"wall_p1_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is measured in the traced run, from outside each layer. A layer a
// workload does not exercise reports 0 there (server.* on the batch
// workloads): the layer was busy for zero seconds.
var perLayer = []metricDef{
	{"gen.build_s", "s", "lower", 0},
	{"gen.save_s", "s", "lower", 0},
	{"graph.verts", "count", "lower", 0},
	{"graph.arcs", "count", "lower", 0},

	{"graphio.load_s", "s", "lower", 0},
	{"graphio.file_mb", "MB", "lower", 0},
	{"graphio.stream_load_s", "s", "lower", 0},

	{"bcc.find_s", "s", "lower", 0},
	{"bcc.blocks", "count", "lower", 0},
	{"bcc.articulation_points", "count", "lower", 0},

	{"decompose.total_s", "s", "lower", 0},
	{"decompose.partition_s", "s", "lower", 0},
	{"decompose.alphabeta_s", "s", "lower", 0},
	{"decompose.subgraphs", "count", "higher", 0},
	{"decompose.boundary_aps", "count", "higher", 0},
	{"decompose.roots", "count", "lower", 0},
	{"decompose.root_frac", "ratio", "lower", 0},
	{"decompose.top_vert_frac", "ratio", "lower", 0},
	{"decompose.share", "ratio", "lower", 0},

	{"core.sweep_s", "s", "lower", 0},
	{"core.sweep_p1_s", "s", "lower", 0},
	{"core.parallel_eff", "ratio", "higher", 0},
	{"core.p1_max_rel_diff", "ratio", "lower", 0},
	{"core.top_bc_s", "s", "lower", 0},
	{"core.rest_bc_s", "s", "lower", 0},
	{"core.traversed_arcs", "count", "lower", 0},
	{"core.roots", "count", "lower", 0},
	{"core.arcs_per_s", "1/s", "higher", 0},
	{"core.work_vs_brandes", "ratio", "lower", 0},
	{"core.static_sweep_s", "s", "lower", 0},
	{"core.inc_new_s", "s", "lower", 0},
	{"core.inc_local_p50_ms", "ms", "lower", 0},
	{"core.inc_rebuild_p50_ms", "ms", "lower", 0},

	{"msbfs.sweep_s", "s", "lower", 0},
	{"msbfs.vs_scalar", "ratio", "higher", 0},
	{"msbfs.rss_delta_mb", "MB", "lower", 0},
	{"msbfs.max_rel_diff", "ratio", "lower", 0},

	{"ws.mallocs_per_root", "count", "lower", 0},
	{"ws.alloc_mb", "MB", "lower", 0},
	{"ws.pool_size", "count", "lower", 0},

	{"brandes.serial_s", "s", "lower", 0},
	{"brandes.speedup", "ratio", "higher", 0},
	{"brandes.max_rel_err", "ratio", "lower", 0},

	{"server.cold_first_answer_s", "s", "lower", 0},
	{"server.load_job_s", "s", "lower", 0},
	{"server.first_topk_ms", "ms", "lower", 0},
	{"server.read_p50_us", "us", "lower", 0},
	{"server.read_p99_ms", "ms", "lower", 0},
	{"server.read_base_p99_ms", "ms", "lower", 0},
	{"server.read_slo_frac", "ratio", "higher", 0},
	{"server.gen_lag_p99_ms", "ms", "lower", 0},
	{"server.mutate_p50_ms", "ms", "lower", 0},
	{"server.mutate_p90_ms", "ms", "lower", 0},
	{"server.mutate_local_p50_ms", "ms", "lower", 0},
	{"server.mutate_rebuild_p50_ms", "ms", "lower", 0},
	{"server.mutate_overhead_ms", "ms", "lower", 0},
	{"server.rebuild_frac", "ratio", "lower", 0},
	{"server.mutations", "count", "higher", 0},
	{"server.epochs", "count", "higher", 0},
	{"server.overload_429", "count", "lower", 0},
	{"server.recover_s", "s", "lower", 0},
	{"server.recover_max_rel_diff", "ratio", "lower", 0},
	{"server.wal_appends", "count", "lower", 0},
	{"server.snapshots", "count", "lower", 0},
	{"server.topk_cache_hit_frac", "ratio", "higher", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// exactRepeat lists the per-layer counts that must be identical between two
// runs with the same seed: they depend on the generated input and the
// algorithm, never on timing. server.mutations/epochs are deliberately
// absent — how many mutations fit in the mixed phase depends on the clock.
var exactRepeat = []string{
	"graph.verts", "graph.arcs",
	"bcc.blocks", "bcc.articulation_points",
	"decompose.subgraphs", "decompose.boundary_aps", "decompose.roots",
	"core.traversed_arcs", "core.roots",
	"server.rebuild_frac",
}

// writeManifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the names the program prints cannot drift apart
// (TestManifestMatchesTables pins the committed copy).
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // Bound 0: the key is omitted
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
