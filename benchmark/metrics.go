package main

// metricDef is one metric of the benchmark's contract. BENCHMARK.json lists
// the same names, units and directions (benchmark_test.go holds the two
// together); the regression bounds live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a caller of the system sees. Every workload
// reports every one of them, from the untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_share", "share", "higher"},
	{"ex_share", "share", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<metric>. A layer a workload's timed phase never enters reports
// 0 there.
var perLayer = []metricDef{
	{"service.hit_path_us", "us", "lower"},
	{"service.miss_overhead_us", "us", "lower"},
	{"service.latency_p99_ms", "ms", "lower"},
	{"service.prewarm_s", "s", "lower"},
	{"service.read_p50_ms", "ms", "lower"},
	{"service.read_p95_ms", "ms", "lower"},

	{"admission.admit_ns", "ns", "lower"},
	{"admission.shed_share", "share", "lower"},

	{"gencache.hit_share", "share", "higher"},
	{"gencache.do_hit_ns", "ns", "lower"},
	{"gencache.post_swap_miss_share", "share", "lower"},

	{"pipeline.generate_us", "us", "lower"},
	{"pipeline.op.reformulation_us", "us", "lower"},
	{"pipeline.op.intent_classification_us", "us", "lower"},
	{"pipeline.op.example_selection_us", "us", "lower"},
	{"pipeline.op.instruction_selection_us", "us", "lower"},
	{"pipeline.op.schema_linking_us", "us", "lower"},
	{"pipeline.op.planning_us", "us", "lower"},
	{"pipeline.op.generation_loop_us", "us", "lower"},
	{"pipeline.attempts_per_op", "count", "lower"},
	{"pipeline.first_attempt_ok_share", "share", "higher"},
	{"pipeline.engine_build_ms", "ms", "lower"},
	{"pipeline.with_knowledge_ms", "ms", "lower"},

	{"simllm.reformulate_us", "us", "lower"},
	{"simllm.classify_us", "us", "lower"},
	{"simllm.link_schema_us", "us", "lower"},
	{"simllm.plan_us", "us", "lower"},
	{"simllm.generate_sql_us", "us", "lower"},
	{"simllm.repair_sql_us", "us", "lower"},
	{"simllm.calls_per_op", "count", "lower"},

	{"embed.text_us", "us", "lower"},
	{"embed.candidates_per_search", "count", "lower"},
	{"embed.ann_share", "share", "higher"},
	{"embed.partitions_per_search", "count", "lower"},
	{"embed.full_sweeps", "count", "lower"},

	{"sqlparse.parse_us_per_stmt", "us", "lower"},

	{"sqlexec.self_us_per_op", "us", "lower"},
	{"sqlexec.query_cold_us_per_stmt", "us", "lower"},
	{"sqlexec.query_warm_us_per_stmt", "us", "lower"},
	{"sqlexec.allocs_per_stmt_warm", "count", "lower"},
	{"sqlexec.stmtcache_hit_share", "share", "higher"},
	{"sqlexec.error_share", "share", "lower"},
	{"sqlexec.rows_per_stmt", "count", "lower"},

	{"eval.evaluate_us_per_case", "us", "lower"},
	{"eval.gold_us_per_case", "us", "lower"},
	{"baselines.generate_us_per_case", "us", "lower"},
	{"bench.table1_wall_ms", "ms", "lower"},
	{"bench.table2_wall_ms", "ms", "lower"},

	{"feedback.open_ms", "ms", "lower"},
	{"feedback.recommend_ms", "ms", "lower"},
	{"feedback.submit_ms", "ms", "lower"},
	{"feedback.approve_ms", "ms", "lower"},
	{"feedback.merged_share", "share", "higher"},
	{"feedback.rejected_share", "share", "lower"},
	{"feedback.improvement_wall_ms", "ms", "lower"},

	{"kstore.commit_ms", "ms", "lower"},
	{"kstore.open_ms", "ms", "lower"},
	{"kstore.compact_ms", "ms", "lower"},
	{"kstore.wal_bytes_per_commit", "B", "lower"},
	{"knowledge.build_ms_per_db", "ms", "lower"},
	{"workload.suite_gen_ms", "ms", "lower"},

	{"metrics.gather_us", "us", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.heap_live_mb", "MB", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// layerValues collects the traced run's per-layer metrics; samples holds,
// per metric, how many measurements stand behind the value.
type layerValues struct {
	values  map[string]float64
	samples map[string]int
}

func newLayerValues() *layerValues {
	return &layerValues{values: make(map[string]float64), samples: make(map[string]int)}
}

func (l *layerValues) set(name string, value float64, samples int) {
	l.values[name] = value
	l.samples[name] = samples
}

// perOp sets name to a span total divided over ops, converted by div (1e3
// for µs, 1e6 for ms).
func (l *layerValues) perOp(name string, totalNS int64, ops int, div float64, samples int) {
	l.set(name, share(float64(totalNS)/div, float64(ops)), samples)
}
