package main

// endToEnd holds the end-to-end metrics every workload reports with
// --trace 0, besides setup_s (see run.setupDone).
type endToEnd struct {
	roundS    float64 // median wall time of one round
	shuttles  int     // trap-to-trap transfers over a round's schedules
	makespanS float64 // simulated execution time over a round's schedules
	negLog10F float64 // sum of -log10 fidelity over a round's schedules
	allocMB   float64 // median MB allocated per round
	rssMB     float64 // peak resident set size
	meanMS    float64 // median over rounds of a round's mean operation latency
}

func setEndToEnd(r *run, e endToEnd) {
	r.set("setup_s", "s", r.setupS)
	r.set("round_s", "s", e.roundS)
	r.set("shuttles", "count", float64(e.shuttles))
	r.set("sim_makespan", "sim_s", e.makespanS)
	r.set("neg_log10_fidelity", "decades", e.negLog10F)
	r.set("alloc_mb", "MB", e.allocMB)
	r.set("peak_rss_mb", "MB", e.rssMB)
	r.set("latency_mean_ms", "ms", e.meanMS)
}

// layerMetrics are the per-layer metrics every traced run reports. A
// workload that does not exercise a layer reports 0 for it, which shows
// that the layer is not on that workload's path.
var layerMetrics = []struct{ name, unit string }{
	{"bench.generate_ms", "ms"},
	{"arch.build_ms", "ms"},
	{"circuit.parse_ms", "ms"},
	{"circuit.lower_ms", "ms"},
	{"dag.build_ms", "ms"},
	{"core.trivial_ms.small", "ms"},
	{"core.trivial_ms.medium", "ms"},
	{"core.trivial_ms.large", "ms"},
	{"core.sabre_ms.small", "ms"},
	{"core.sabre_ms.medium", "ms"},
	{"core.sabre_ms.large", "ms"},
	{"core.probe_ms.small", "ms"},
	{"core.probe_ms.medium", "ms"},
	{"core.probe_ms.large", "ms"},
	{"core.routed", "count"},
	{"core.evictions", "count"},
	{"core.swaps_inserted", "count"},
	{"core.fast_path", "count"},
	{"sim.trace_ops", "count"},
	{"baseline.murali_ms", "ms"},
	{"baseline.dai_ms", "ms"},
	{"baseline.mqt_ms", "ms"},
	{"eval.memo_hits", "count"},
	{"eval.memo_misses", "count"},
	{"eval.job_wall_ms", "ms"},
	{"eval.overhead_s", "s"},
	{"service.compiles", "count"},
	{"service.cache_served", "count"},
	{"service.rejected", "count"},
	{"service.ttfb_ms", "ms"},
	{"service.hot_latency_p50_ms", "ms"},
	{"service.cold_latency_p50_ms", "ms"},
	{"service.latency_p99_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// setLayerDefaults sets every per-layer metric to 0 before a workload fills
// in the layers it exercises.
func setLayerDefaults(r *run) {
	for _, m := range layerMetrics {
		r.set(m.name, m.unit, 0)
	}
}
