package main

type metricGroup int

const (
	endToEnd metricGroup = iota
	perLayer
)

// metricDef declares one metric the harness emits. BENCHMARK.json repeats
// name, unit, direction and bound (the lint test keeps the two equal); which
// metrics are exact counts is the harness's own knowledge. README.md says
// where each number comes from.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	group  metricGroup
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression.
	bound float64
	// exact marks counts that must repeat bit for bit on the same seed.
	exact bool
}

var metricDefs = []metricDef{
	// ---- end to end: what a user of the server sees ----
	{name: "ingest_events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ingest_ack_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "delta_latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_cpu_s_per_mevent", unit: "s/Mevent", better: "lower", bound: 0.25},
	{name: "server_rss_peak_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},

	// ---- serve ----
	{name: "serve.ingest_overhead_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "serve.ingest_overhead_us_per_request", unit: "us", better: "lower", group: perLayer},
	{name: "serve.delta_after_ack_p50_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "serve.delta_bytes_per_row", unit: "bytes", better: "lower", group: perLayer, exact: true},
	{name: "serve.request_bytes_per_event", unit: "bytes", better: "lower", group: perLayer, exact: true},
	// ---- sqlparser / plan / opt ----
	{name: "sqlparser.parse_us", unit: "us", better: "lower", group: perLayer},
	{name: "plan.plan_us", unit: "us", better: "lower", group: perLayer},
	{name: "opt.optimize_us", unit: "us", better: "lower", group: perLayer},
	// ---- exec ----
	{name: "exec.compile_us", unit: "us", better: "lower", group: perLayer},
	{name: "exec.feed_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "exec.feed_us_per_event_first_decile", unit: "us", better: "lower", group: perLayer},
	{name: "exec.feed_us_per_event_last_decile", unit: "us", better: "lower", group: perLayer},
	{name: "exec.feed_cost_growth", unit: "ratio", better: "lower", group: perLayer},
	{name: "exec.run_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "exec.events_per_dispatch", unit: "count", better: "higher", group: perLayer},
	{name: "exec.rows_out_per_event", unit: "ratio", better: "lower", group: perLayer, exact: true},
	{name: "exec.state_groups_live", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "exec.state_groups_freed", unit: "count", better: "higher", group: perLayer, exact: true},
	{name: "exec.state_rows", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "exec.late_dropped", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "exec.allocs_per_event", unit: "count", better: "lower", group: perLayer},
	// ---- tvr ----
	{name: "tvr.render_us_per_row", unit: "us", better: "lower", group: perLayer},
	{name: "tvr.rows_rendered", unit: "count", better: "lower", group: perLayer, exact: true},
	// ---- wal ----
	{name: "wal.append_us_per_commit.always", unit: "us", better: "lower", group: perLayer},
	{name: "wal.append_us_per_commit.none", unit: "us", better: "lower", group: perLayer},
	{name: "wal.fsync_us", unit: "us", better: "lower", group: perLayer},
	{name: "wal.server_fsync_us", unit: "us", better: "lower", group: perLayer},
	{name: "wal.bytes_per_event", unit: "bytes", better: "lower", group: perLayer, exact: true},
	{name: "wal.fsyncs_per_commit", unit: "ratio", better: "lower", group: perLayer, exact: true},
	{name: "wal.rotations", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "wal.replay_us_per_event", unit: "us", better: "lower", group: perLayer},
	// ---- checkpoint / recovery ----
	{name: "checkpoint.snapshot_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "checkpoint.snapshot_bytes_per_event", unit: "bytes", better: "lower", group: perLayer, exact: true},
	{name: "checkpoint.restore_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "checkpoint.http_ms_p50", unit: "ms", better: "lower", group: perLayer},
	{name: "recovery.restart_s", unit: "s", better: "lower", group: perLayer},
	// ---- core / live ----
	{name: "core.commit_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "live.self_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "live.deltas_out", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "live.rows_out", unit: "count", better: "lower", group: perLayer, exact: true},
	{name: "live.parks", unit: "count", better: "lower", group: perLayer},
	// ---- commit: the server's own span table ----
	{name: "commit.validate_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.wal_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.sequence_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.apply_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.render_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.deliver_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.total_us_per_event", unit: "us", better: "lower", group: perLayer},
	{name: "commit.slow_total", unit: "count", better: "lower", group: perLayer},
	{name: "engine.query_seconds_mean", unit: "s", better: "lower", group: perLayer},
	// ---- trace ----
	{name: "trace.reconcile_gap_share", unit: "share", better: "lower", group: perLayer},
	{name: "trace.reconcile_gap_share.apply", unit: "share", better: "lower", group: perLayer},
	{name: "trace.reconcile_gap_share.render", unit: "share", better: "lower", group: perLayer},
	{name: "trace.reconcile_gap_share.wal", unit: "share", better: "lower", group: perLayer},
	{name: "trace.overhead_share", unit: "share", better: "lower", group: perLayer},
	{name: "trace.events", unit: "count", better: "higher", group: perLayer, exact: true},
	// ---- client / harness ----
	{name: "client.ack_p95_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.delta_p95_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.ack_p99_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.ack_max_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.ack_samples", unit: "count", better: "higher", group: perLayer, exact: true},
	{name: "client.delta_p99_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.delta_samples", unit: "count", better: "higher", group: perLayer, exact: true},
	{name: "client.query_samples", unit: "count", better: "higher", group: perLayer, exact: true},
	{name: "client.lateness_p95_ms", unit: "ms", better: "lower", group: perLayer},
	{name: "client.cpu_share", unit: "share", better: "lower", group: perLayer},
	{name: "client.failed_share", unit: "share", better: "lower", group: perLayer},
	{name: "harness.steal_share", unit: "share", better: "lower", group: perLayer},
	{name: "harness.build_s", unit: "s", better: "lower", group: perLayer},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func unitOf(name string) string {
	d, _ := metricByName(name)
	return d.unit
}

// declaration is BENCHMARK.json as the harness's own tables state it. The
// lint test holds the file to this.
func declaration() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range metricDefs {
		m := declaredMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.group == endToEnd {
			bound := d.bound
			m.Bound = &bound
			b.EndToEnd = append(b.EndToEnd, m)
		} else {
			b.PerLayer = append(b.PerLayer, m)
		}
	}
	return b
}
