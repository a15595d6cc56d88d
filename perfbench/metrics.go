package main

// metric is one reported figure: its name as BENCHMARK.json lists it and
// its unit.
type metric struct {
	name, unit string
}

// endToEnd are the figures every untraced run prints, on every workload.
// op_p50_ms is the median host time of the workload's op (NOTES.md lists
// what one op is on each workload). On the closed-loop workloads times are
// calibrated (see probe); raw.* in the traced run carry them unscaled.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_cpu_ms", "ms"},
}

// perLayer are the figures every traced run prints, on every workload. A
// layer a workload does not exercise reports 0: a change to that layer is
// predicted to leave the workload unchanged, and this shows it.
var perLayer = []metric{
	// Run accounting and environment.
	{"fail_frac", "ratio"},
	{"op.count", "count"},
	{"op.tail_ms", "ms"},
	{"op.tail_pct", "pct"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
	{"env.calib_ms", "ms"},
	{"env.calib_cpu_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.op_p50_ms", "ms"},
	{"raw.op_cpu_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"digest.sim", "id"},
	{"digest.dataset", "id"},
	{"digest.weights", "id"},
	{"digest.timeline", "id"},

	// Path figures, each measured on the one workload that runs the path.
	{"sim_speed", "sim-s/s"},
	{"run_p50_ms", "ms"},
	{"collect_samples_per_s", "1/s"},
	{"train_samples_per_s", "1/s"},
	{"test_macro_f1", "ratio"},
	{"predict_p50_ms", "ms"},
	{"predict_p99_ms", "ms"},
	{"forecast_p99_ms", "ms"},
	{"max_rate_rps", "req/s"},
	{"episode_s", "s"},
	{"victim_slowdown", "ratio"},

	// Simulator (obs counters, exact for a seed).
	{"engine.events", "count"},
	{"engine.max_queue_depth", "count"},
	{"engine.host_ns_per_event", "ns"},
	{"disk.requests", "count"},
	{"disk.seq_frac", "ratio"},
	{"disk.busy_frac", "ratio"},
	{"blockqueue.merge_frac", "ratio"},
	{"netsim.flows", "count"},
	{"netsim.recomputes_per_flow", "ratio"},
	{"ost.throttled_frac", "ratio"},
	{"mds.cache_hit_frac", "ratio"},
	{"client.ra_hit_frac", "ratio"},
	{"client.retries", "count"},
	{"core.run.allocs", "count"},
	{"core.run.alloc_bytes", "B"},

	// Monitoring, labels, orchestration, learning.
	{"dataset.samples", "count"},
	{"collect.cpu_util", "ratio"},
	{"collect.skipped", "count"},
	{"train.ns_per_sample_epoch", "ns"},
	{"train.cpu_util", "ratio"},
	{"train.alloc_bytes", "B"},
	{"ml.evaluate_ms", "ms"},

	// Serving.
	{"serve.queue_wait_ms", "ms"},
	{"serve.model_ms", "ms"},
	{"serve.total_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.errors", "count"},
	{"serve.reloads", "count"},
	{"serve.digest_mismatches", "count"},
	{"http.hop_ms", "ms"},
	{"fleet.predict_ms.p50", "ms"},
	{"fleet.predict_ms.p99", "ms"},
	{"fleet.forecast_ms.p99", "ms"},
	{"fleet.promote_ms", "ms"},
	{"fleet.failovers", "count"},
	{"fleet.dropped", "count"},
	{"shadow.mirrored", "count"},
	{"shadow.mirror_drop_frac", "ratio"},
	{"shadow.unmatched_frac", "ratio"},
	{"shadow.label_us", "us"},
	{"shadow.verdict_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.sent", "count"},

	// Control.
	{"online.drift_trips", "count"},
	{"online.retrains", "count"},
	{"online.promotions", "count"},
	{"online.rejections", "count"},
	{"online.retrain_ms", "ms"},
	{"mitigate.engagements", "count"},
	{"mitigate.windows_throttled", "count"},
	{"mitigate.bytes_deferred", "B"},
}

// cpuLayers are the layers CPU profile samples are charged to, each
// reported as cpu.<layer>: its share of all samples in the traced pass.
// Internal packages not listed land in "other"; samples with no
// quanterference/internal frame land in "bench" (the benchmark's own code),
// "net_http" (the HTTP stack) or "gc" (the runtime: collector, scheduler).
var cpuLayers = []string{
	"sim", "disk", "blockqueue", "netsim", "lustre", "bb", "fault", "workload",
	"core", "monitor", "label", "dataset", "par",
	"ml", "nn", "forecast",
	"serve", "fleet", "shadow",
	"online", "mitigate",
	"obs", "other", "bench", "net_http", "gc",
}

// allPerLayer is perLayer plus the cpu.<layer> shares, in print order.
func allPerLayer() []metric {
	out := append([]metric(nil), perLayer...)
	for _, l := range cpuLayers {
		out = append(out, metric{"cpu." + l, "share"})
	}
	return out
}
