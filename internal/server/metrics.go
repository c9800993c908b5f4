package server

import (
	"io"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server/promtext"
)

// Metrics bundles the daemon's Prometheus families. NewRegistry builds one
// per registry; the registry's code paths increment it directly and the
// Server over the registry serves it on /metrics. Label cardinality is
// bounded by construction: routes are mux patterns, never raw paths.
type Metrics struct {
	reg *promtext.Registry

	requests    *promtext.CounterVec   // route, method, code
	latency     *promtext.HistogramVec // route
	graphs      *promtext.GaugeVec     // (none)
	incremental *promtext.CounterVec   // result = local | rebuild
	loads       *promtext.CounterVec   // status = ok | error | canceled
	wsPoolSize  *promtext.GaugeVec     // (none)
	wsInUse     *promtext.GaugeVec     // (none)
	wsBytes     *promtext.GaugeVec     // layer = base | lanes | tape
	overload    *promtext.CounterVec   // op = build | mutation
	batches     *promtext.CounterVec   // (none)
	batchOps    *promtext.CounterVec   // (none)
	topk        *promtext.CounterVec   // result = hit | miss
	durability  *promtext.CounterVec   // event = append | snapshot | recover | error
}

// newMetrics builds the metric families.
func newMetrics() *Metrics {
	reg := promtext.NewRegistry()
	m := &Metrics{
		reg: reg,
		requests: reg.NewCounter("bcd_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		latency: reg.NewHistogram("bcd_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.",
			metrics.DurationBuckets(), "route"),
		graphs: reg.NewGauge("bcd_graphs_loaded",
			"Graphs currently in the ready state."),
		incremental: reg.NewCounter("bcd_incremental_updates_total",
			"Edge mutations absorbed, by kind of edit: local (every edge of "+
				"the batch inside one sub-graph) or rebuild (one joined two).",
			"result"),
		loads: reg.NewCounter("bcd_load_jobs_total",
			"Graph build jobs finished, by status.", "status"),
		wsPoolSize: reg.NewGauge("bcd_ws_pool_size",
			"Sweep workspaces held by the shared engine arena "+
				"(free + checked out), sampled at scrape time."),
		wsInUse: reg.NewGauge("bcd_ws_in_use",
			"Sweep workspaces currently checked out of the shared engine "+
				"arena, sampled at scrape time."),
		wsBytes: reg.NewGauge("bcd_ws_bytes",
			"Bytes the shared engine arena's sweep workspaces hold, by layer: "+
				"base (per-vertex arrays, sized by the largest sub-graph swept), "+
				"lanes (bit-parallel kernel state, bounded per workspace) and "+
				"tape (recorded BFS DAG arcs, one slot per arc of the largest "+
				"sub-graph swept root by root); each workspace counted as of "+
				"its last return to the arena.",
			"layer"),
		overload: reg.NewCounter("bcd_overload_total",
			"Requests shed by admission control (answered 429), by queue: "+
				"build (load jobs) or mutation (per-graph edge updates).",
			"op"),
		batches: reg.NewCounter("bcd_mutation_batches_total",
			"Coalesced mutation batches applied — one WAL fsync and one "+
				"published epoch each."),
		batchOps: reg.NewCounter("bcd_mutation_batch_ops_total",
			"Edge mutations carried inside coalesced batches; the ratio to "+
				"bcd_mutation_batches_total is the burst amortization factor."),
		topk: reg.NewCounter("bcd_topk_cache_total",
			"Exact top-K queries, by result: hit (an earlier query had ranked "+
				"the epoch) or miss (this query ranked it).",
			"result"),
		durability: reg.NewCounter("bcd_durability_total",
			"WAL/snapshot events: append (batch fsynced), snapshot "+
				"(compaction written), recover (graph rebuilt from disk), "+
				"error.",
			"event"),
	}
	// Pre-register the low-cardinality series so scrapers see zeros instead
	// of absent series before the first event.
	m.incremental.With("local")
	m.incremental.With("rebuild")
	m.loads.With("ok")
	m.loads.With("error")
	m.loads.With("canceled")
	m.graphs.With()
	m.wsPoolSize.With()
	m.wsInUse.With()
	m.wsBytes.With("base")
	m.wsBytes.With("lanes")
	m.wsBytes.With("tape")
	m.overload.With("build")
	m.overload.With("mutation")
	m.batches.With()
	m.batchOps.With()
	m.topk.With("hit")
	m.topk.With("miss")
	m.durability.With("append")
	m.durability.With("snapshot")
	m.durability.With("recover")
	m.durability.With("error")
	return m
}

// SampleWorkspacePool refreshes the sweep-arena gauges from the core pool's
// counters. The /metrics handler calls it per scrape — the gauges are
// point-in-time samples, not event-driven.
func (m *Metrics) SampleWorkspacePool() {
	size, inUse := core.SweepPoolStats()
	m.wsPoolSize.With().Set(int64(size))
	m.wsInUse.With().Set(int64(inUse))
	b := core.SweepPoolBytes()
	m.wsBytes.With("base").Set(b.Base)
	m.wsBytes.With("lanes").Set(b.Lanes)
	m.wsBytes.With("tape").Set(b.Tape)
}

// ObserveRequest records one served request.
func (m *Metrics) ObserveRequest(route, method string, code int, took time.Duration) {
	m.requests.With(route, method, strconv.Itoa(code)).Inc()
	m.latency.With(route).Observe(took.Seconds())
}

// WriteTo renders the exposition text.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) { return m.reg.WriteTo(w) }
