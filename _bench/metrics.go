package main

// The metric names and units below must match BENCHMARK.json; a test
// checks that they do.

// endToEnd lists the metrics every untraced run reports. An op is one
// scenario-run in sweep and one 64B access in the image workloads.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"alloc_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run reports. A layer a workload
// does not exercise reads 0 there (the sweep never touches secmem or
// crypto; the image workloads never run the event loop).
var perLayer = []struct{ name, unit string }{
	{"hetero.warmup_s", "s"},
	{"hetero.pool_utilization", "ratio"},
	{"workload.next_ns", "ns"},
	{"workload.requests", "count"},
	{"core.submit_ns", "ns"},
	{"device.complete_ns", "ns"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.loop_self_s", "s"},
	{"probe.collect_overhead_ratio", "ratio"},
	{"tree.walk_levels_mean", "levels"},
	{"cache.meta_hit_ratio", "ratio"},
	{"cache.mac_hit_ratio", "ratio"},
	{"cache.gt_hit_ratio", "ratio"},
	{"mem.data_bytes", "B"},
	{"mem.meta_bytes", "B"},
	{"mem.row_hit_rate", "ratio"},
	{"core.switches", "count"},
	{"core.detections", "count"},
	{"tracker.access_ns", "ns"},
	{"tracker.detections", "count"},
	{"secmem.read_ns.g64", "ns"},
	{"secmem.read_ns.g512", "ns"},
	{"secmem.read_ns.g4k", "ns"},
	{"secmem.read_ns.g32k", "ns"},
	{"secmem.write_ns.g64", "ns"},
	{"secmem.write_ns.g512", "ns"},
	{"secmem.write_ns.g4k", "ns"},
	{"secmem.write_ns.g32k", "ns"},
	{"secmem.ops.g64", "count"},
	{"secmem.ops.g512", "count"},
	{"secmem.ops.g4k", "count"},
	{"secmem.ops.g32k", "count"},
	{"secmem.apply_detection_ns", "ns"},
	{"secmem.promotions", "count"},
	{"secmem.demotions", "count"},
	{"secmem.verified_per_op", "count"},
	{"crypto.block_mac_ns", "ns"},
	{"crypto.nested_mac_ns", "ns"},
	{"crypto.node_mac_ns", "ns"},
	{"crypto.seal_ns", "ns"},
	{"crypto.block_mac_allocs", "count"},
	{"trace_overhead_ratio", "ratio"},
}

// granNames suffixes the per-granularity secmem metrics.
var granNames = [4]string{"g64", "g512", "g4k", "g32k"}

func setPerLayerZero(r *report) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// setEndToEnd records the end-to-end metrics of an untraced run from its
// timed windows and op latencies, and prints the latency percentiles and
// the peak RSS beside them. Those stay out of the result line: on a shared
// host they moved by up to 15-45% between runs of the same code (README.md,
// "Steadiness"). In a closed loop ops_per_s is the inverse of the mean op
// latency, so a slower op still shows in it.
func setEndToEnd(r *report, ws []window, lat *latHist, allocPerOp, setupS float64) {
	r.note("ops_per_s is the median over %d windows; percentiles are over all %d ops", len(ws), lat.n)
	r.note("op_p50_us=%.2f op_p90_us=%.2f op_p99_us=%.2f (us, %d samples)", lat.quantile(0.5), lat.quantile(0.9), lat.quantile(0.99), lat.n)
	r.note("peak_rss_mb=%.1f (MB)", peakRSSMB())
	r.set("ops_per_s", medianRate(ws), "1/s")
	r.set("alloc_bytes_per_op", allocPerOp, "B")
	r.set("setup_s", setupS, "s")
}
