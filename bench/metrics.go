package main

// metricDef describes one reported metric. Bound and Floor apply to the
// end-to-end metrics only: a change regresses a metric when its median
// is worse than the baseline median by more than Bound × baseline, and
// never by less than Floor (in Unit). BENCHMARK.json lists the same
// names, units, directions and bounds; the floors live here.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// e2eMetrics are what a caller of the verdict service sees. Every
// workload reports all of them with -trace 0.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "channels_per_s", Unit: "channels/s", Better: "higher", Bound: 0.25},
	{Name: "server_cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// layerMetrics are the per-layer numbers every workload reports with
// -trace 1, named after the module that does the work. README.md gives
// each one's source and the end-to-end metric it should move.
var layerMetrics = []metricDef{
	{Name: "serve.handler_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.flight_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_answer_rate", Unit: "ratio", Better: "higher"},
	{Name: "http.transport_us", Unit: "us", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "topology.build_us", Unit: "us", Better: "lower"},
	{Name: "core.turns_us", Unit: "us", Better: "lower"},
	{Name: "cdg.key_us", Unit: "us", Better: "lower"},
	{Name: "cdg.verify_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cdg.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "cdg.workspace_pool_reuse_rate", Unit: "ratio", Better: "higher"},
	{Name: "cdg.graph_alloc_us", Unit: "us", Better: "lower"},
	{Name: "cdg.verify_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cdg.edges_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cdg.acyclicity_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cdg.edges_us", Unit: "us", Better: "lower"},
	{Name: "cdg.kahn_us", Unit: "us", Better: "lower"},
	{Name: "cdg.verify_self_us", Unit: "us", Better: "lower"},
	{Name: "cdg.kahn_rounds_per_verify", Unit: "count", Better: "lower"},
	{Name: "cdg.residual_dfs_rate", Unit: "ratio", Better: "lower"},
	{Name: "cdg.dfs_us", Unit: "us", Better: "lower"},
	{Name: "cdg.rate_mesh16", Unit: "channels/s", Better: "higher"},
	{Name: "cdg.rate_mesh32", Unit: "channels/s", Better: "higher"},
	{Name: "cdg.rate_mesh48", Unit: "channels/s", Better: "higher"},
	{Name: "cdg.rate_mesh64", Unit: "channels/s", Better: "higher"},
	{Name: "cdg.edges_parallel_x", Unit: "ratio", Better: "higher"},
	{Name: "cdg.peel_parallel_x", Unit: "ratio", Better: "higher"},
	{Name: "cdg.delta_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cdg.patch_us", Unit: "us", Better: "lower"},
	{Name: "cdg.repeel_us", Unit: "us", Better: "lower"},
	{Name: "cdg.delta_incremental_rate", Unit: "ratio", Better: "higher"},
	{Name: "cdg.delta_fallback_rate", Unit: "ratio", Better: "lower"},
	{Name: "cdg.delta_pool_reuse_rate", Unit: "ratio", Better: "higher"},
	{Name: "cdg.delta_setup_us", Unit: "us", Better: "lower"},
	{Name: "cdg.delta_link_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cdg.delta_toggle_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cdg.mode_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "cdg.mode_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cdg.mode_loop_us", Unit: "us", Better: "lower"},
	{Name: "cdg.mode_liveness_us", Unit: "us", Better: "lower"},
	{Name: "cdg.mode_escape_us", Unit: "us", Better: "lower"},
	{Name: "cdg.mode_subrel_us", Unit: "us", Better: "lower"},
	{Name: "graphio.parse_us", Unit: "us", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values for one family of definitions.
type metricSet map[string]metricValue

// set records a value under a defined metric name; an undefined name is
// a bug in the benchmark, not a property of the run.
func (s metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			s[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undefined metric " + name)
}
