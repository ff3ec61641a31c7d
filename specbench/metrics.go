package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step);
// moves, for a per-layer metric, names the end-to-end metric and
// workload a change to that layer should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a specd user sees, measured with tracing
// off. latency_p50_ms is the geometric mean over kernels of each
// kernel's median latency; latency_p99_ms is over every request. The
// sim_* metrics are the generated code's VM cycles and loads retired
// (excluding checks), geometric means over kernels of each kernel's
// geometric mean over the first answers. Failed requests are reported
// as the result's failed count, not as a metric: a passing run has
// none, and a metric must never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"throughput_rps", "1/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_p99_ms", "ms", "lower", ""},
	{"cpu_ms_per_req", "ms", "lower", ""},
	{"alloc_kb_per_req", "KiB", "lower", ""},
	{"peak_rss_mb", "MiB", "lower", ""},
	{"sim_cycles_geomean", "cycles", "lower", ""},
	{"sim_loads_geomean", "loads", "lower", ""},
}

const (
	movesWarm    = "latency_p50_ms, throughput_rps, cpu_ms_per_req, alloc_kb_per_req on serve-warm"
	movesCold    = "throughput_rps, latency_p50_ms, latency_p99_ms, peak_rss_mb on serve-cold"
	movesSweep   = "throughput_rps, latency_p50_ms, latency_p99_ms on sweep"
	movesServer  = "latency_p50_ms on every workload, most on serve-warm"
	movesQuality = "holds sim_cycles_geomean and sim_loads_geomean still on every workload"
	movesNone    = "nothing: describes the traced run itself"
)

// perLayer are the ledger's metrics. Times are self times (a span minus
// its child spans) and counts are per traced request; ratios are over
// the whole run. Layers a workload does not exercise read 0 there.
var perLayer = []metricDef{
	// warm compile path
	{"source.parse_ms", "ms", "lower", movesWarm},
	{"source.lower_ms", "ms", "lower", movesWarm},
	{"source.ir_stmts", "count", "lower", movesWarm},
	{"ir.clone_ms", "ms", "lower", movesWarm},
	{"alias.refine_ms", "ms", "lower", movesWarm},
	{"alias.analyze_ms", "ms", "lower", movesWarm},
	{"alias.annotate_ms", "ms", "lower", movesWarm},
	{"profile.unmarshal_ms", "ms", "lower", movesWarm},
	{"profile.apply_edges_ms", "ms", "lower", movesWarm},
	{"core.assign_flags_ms", "ms", "lower", movesWarm},
	{"ssapre.run_ms", "ms", "lower", movesWarm},
	{"ir.verify_ms", "ms", "lower", movesWarm},
	{"codegen.lower_ms", "ms", "lower", movesWarm},
	{"codegen.instrs", "count", "lower", movesWarm},
	{"repro.glue_ms", "ms", "lower", movesWarm},
	{"experiments.glue_ms", "ms", "lower", movesWarm},
	{"specheck.layer1_ms", "ms", "lower", movesWarm},
	{"specheck.layer2_ms", "ms", "lower", movesWarm},
	{"specheck.layer3_ms", "ms", "lower", movesWarm},
	{"specheck.violations", "count", "lower", movesWarm},
	{"harden.apply_ms", "ms", "lower", movesWarm},
	{"harden.fences", "count", "lower", movesWarm},
	{"harden.hoists", "count", "lower", movesWarm},
	{"machine.fingerprint_ms", "ms", "lower", movesWarm},
	// cold path
	{"interp.train_ms", "ms", "lower", movesCold},
	{"interp.train_steps", "count", "lower", movesCold},
	{"profile.marshal_ms", "ms", "lower", movesCold},
	{"profile.bytes", "B", "lower", movesCold},
	{"machine.record_ms", "ms", "lower", movesCold},
	{"machine.trace_encode_ms", "ms", "lower", movesCold},
	{"machine.trace_decode_ms", "ms", "lower", movesCold},
	{"machine.trace_bytes", "B", "lower", movesCold},
	{"machine.trace_events", "count", "lower", movesCold},
	{"cache.profiling_runs_per_req", "count", "lower", movesCold},
	{"cache.mem_hit_ratio", "ratio", "higher", movesCold},
	// replay
	{"machine.replay_batch_ms", "ms", "lower", movesSweep},
	{"machine.replay_ms", "ms", "lower", movesWarm},
	// server
	{"server.handler_ms", "ms", "lower", movesServer},
	{"server.transport_ms", "ms", "lower", movesServer},
	{"server.rejected", "count", "lower", movesServer},
	// code quality
	{"ssapre.eliminated", "count", "higher", movesQuality},
	{"ssapre.checks_inserted", "count", "higher", movesQuality},
	{"ssapre.adv_loads_marked", "count", "higher", movesQuality},
	{"machine.instrs_retired", "count", "lower", movesQuality},
	{"machine.check_hit_ratio", "ratio", "higher", movesQuality},
	// the traced run itself
	{"bench.trace_overhead", "ratio", "lower", movesNone},
	{"bench.traced_requests", "count", "higher", movesNone},
}

// spanMetric names the per-layer time metric of each span name; the
// root spans' self time is their layer's glue.
var spanMetric = map[string]string{
	"request":       "experiments.glue_ms",
	"repro.compile": "repro.glue_ms",
}

func timeMetric(span string) string {
	if m, ok := spanMetric[span]; ok {
		return m
	}
	return span + "_ms"
}
