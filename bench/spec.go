package bench

// Workloads lists the benchmark's workloads in run order. BENCHMARK.json
// names the same four; spec_test.go keeps the two in step.
var Workloads = []string{"route-uniform", "route-oracle", "batch-sweep", "churn"}

// MetricSpec names one reported metric with its unit and direction.
type MetricSpec struct {
	Name, Unit, Better string
}

// EndToEnd are the metrics an untraced run reports, in print order.
var EndToEnd = []MetricSpec{
	{"setup_s", "s", "lower"},
	{"pairs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"delivered_frac", "frac", "higher"},
	{"shortest_frac", "frac", "higher"},
	{"server_rss_mb", "MB", "lower"},
}

// PerLayer are the metrics a traced run reports, in print order. Layers
// are named after the packages they measure.
var PerLayer = []MetricSpec{
	{"routing.walk.calls", "count", "higher"},
	{"routing.walk.busy_s", "s", "lower"},
	{"routing.walk.p50_us", "us", "lower"},
	{"routing.walk.p99_us", "us", "lower"},
	{"routing.walk.max_ms", "ms", "lower"},
	{"routing.walk.tail1pct_share", "frac", "lower"},
	{"routing.walk.allocs_per_call", "count", "lower"},
	{"routing.walk.alloc_free_frac", "frac", "higher"},
	{"routing.walk.phases_mean", "count", "lower"},
	{"routing.walk.wallflips_total", "count", "lower"},
	{"routing.walk.downgraded_total", "count", "lower"},

	{"engine.route.p50_us", "us", "lower"},
	{"engine.batch.wall_ms_p50", "ms", "lower"},
	{"engine.batch.worker_util", "frac", "higher"},

	{"meshroute.route.p50_us", "us", "lower"},
	{"meshroute.route_oracle.p50_us", "us", "lower"},
	{"meshroute.apply.ms_p50", "ms", "lower"},

	{"spath.oracle.hit_frac", "frac", "higher"},
	{"spath.oracle.fill_us_p50", "us", "lower"},
	{"spath.oracle.hit_us_p50", "us", "lower"},
	{"spath.oracle.rebase_us", "us", "lower"},
	{"spath.oracle.carried", "count", "higher"},
	{"spath.manhattan.p50_us", "us", "lower"},

	{"server.request_ms_p50", "ms", "lower"},
	{"server.decode_us_p50", "us", "lower"},
	{"server.encode_us_p50", "us", "lower"},
	{"server.walk_us_p50", "us", "lower"},
	{"server.apply_ms_p50", "ms", "lower"},
	{"server.journal_fsync_us_p50", "us", "lower"},
	{"server.self_us_p50", "us", "lower"},
	{"server.handler_inproc.us_p50", "us", "lower"},

	{"net.overhead_us_p50", "us", "lower"},

	{"fault.diff.us", "us", "lower"},
	{"labeling.update.ms", "ms", "lower"},
	{"labeling.update.cells", "count", "lower"},
	{"mcc.update_set.ms", "ms", "lower"},
	{"mcc.update_set.carried_frac", "frac", "higher"},
	{"info.rebuild.B1.ms", "ms", "lower"},
	{"info.rebuild.B2.ms", "ms", "lower"},
	{"info.rebuild.B3.ms", "ms", "lower"},
	{"info.rebuild.B2.alloc_mb", "MB", "lower"},
	{"routing.rebuild_from.ms", "ms", "lower"},
	{"routing.rebuild_from.alloc_mb", "MB", "lower"},
	{"engine.swap.ms", "ms", "lower"},
	{"engine.swap.alloc_mb", "MB", "lower"},
	{"engine.rebuild.delta_builds", "count", "higher"},
	{"engine.rebuild.full_builds", "count", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.fsync_us", "us", "lower"},

	{"gap.route_us", "us", "lower"},
	{"gap.commit_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}
