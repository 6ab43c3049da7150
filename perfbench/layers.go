package main

// layerUnits is the full per-layer metric set with units. Every traced run
// reports every name, so all workloads print the same keys; a layer a
// workload does not exercise reads 0 there (see README.md for which layer
// each workload drives). BENCHMARK.json lists exactly these names.
var layerUnits = map[string]string{
	"devmodel.characterize_ms":   "ms",
	"qwm.build_us":               "us",
	"qwm.evaluate_us":            "us",
	"qwm.ns_per_nr_iter":         "ns",
	"qwm.nr_iters_per_op":        "count",
	"qwm.regions_per_op":         "count",
	"qwm.dense_fallbacks_per_op": "count",
	"qwm.cap_resolves_per_op":    "count",
	"qwm.delay_err_median_pct":   "%",
	"qwm.delay_err_max_pct":      "%",
	"qwm.delay_err_mean_pct":     "%",
	"qwm.speedup_vs_spice1ps":    "x",
	"spice.tran1ps_ms":           "ms",

	"sta.analyze_ms":              "ms",
	"sta.new_us":                  "us",
	"sta.levels_per_op":           "count",
	"sta.level_width_mean":        "count",
	"sta.stages_evaluated_per_op": "count",
	"sta.cache_hit_pct":           "%",
	"sta.degraded_per_op":         "count",
	"sta.eval_share_pct":          "%",
	"sta.engine_self_ms":          "ms",
	"sta.worker_busy_pct":         "%",

	"client.gen_us":        "us",
	"http.rtt_ms":          "ms",
	"http.transport_ms":    "ms",
	"service.handler_ms":   "ms",
	"service.handler_a_ms": "ms",
	"service.handler_b_ms": "ms",
	"netlist.parse_us":     "us",
	"v1.decode_us":         "us",
	"v1.encode_us":         "us",

	"remotecache.get_us":                    "us",
	"remotecache.put_us":                    "us",
	"remotecache.gets_per_req":              "count",
	"remotecache.hit_pct":                   "%",
	"diskcache.hit_pct":                     "%",
	"diskcache.puts_per_req":                "count",
	"diskcache.drops":                       "count",
	"sta.stages_evaluated_per_req_fresh":    "count",
	"sta.stages_evaluated_per_req_resubmit": "count",
	"heap_growth_kb_per_req":                "KB",

	// Self time per op of each layer; the layers of one workload tile its
	// op latency (stage-qwm: qwm.*; sta-cold: sta.new, sta.engine,
	// qwm.evals; service-fleet: the rest).
	"self.qwm.build_ms":      "ms",
	"self.qwm.evaluate_ms":   "ms",
	"self.qwm.other_ms":      "ms",
	"self.sta.new_ms":        "ms",
	"self.sta.engine_ms":     "ms",
	"self.qwm.evals_ms":      "ms",
	"self.client.codec_ms":   "ms",
	"self.http.transport_ms": "ms",
	"self.service.other_ms":  "ms",
	"self.netlist.parse_ms":  "ms",
	"self.v1.codec_ms":       "ms",
	"self.sta.analyze_ms":    "ms",

	"trace.overhead_pct":  "%",
	"trace.reconcile_pct": "%",
	"latency_samples":     "count",
	"latency_p99_ms":      "ms",
	"failed_pct":          "%",
	"bench.refgen_s":      "s",
}

// emptyLayers returns every per-layer metric at 0, to be overwritten by the
// layers the workload exercises.
func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}
