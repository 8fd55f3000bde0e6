package main

// The metric tables. BENCHMARK.json lists the same names and units
// (TestMetricTablesMatchBenchmarkJSON); README.md says what each one
// measures on each workload and which end-to-end metric each per-layer
// metric should move.

type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of the classifier sees; every workload reports
// all of them with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"restart_s", "s"},
	{"query_qps", "1/s"},
	{"query_p50_us", "us"},
	{"batch_p50_us", "us"},
	{"update_dps", "1/s"},
	{"verify_loops_s", "s"},
	{"verify_mean_ms", "ms"},
	{"verify_p90_ms", "ms"},
}

// tails are the tail latencies of the open loops and the firehose. They
// are measured on every run, but only the traced run reports them (as
// traced.*), because no statistic tried held them within an end-to-end
// bound between runs on the reference host (README.md, "Tails are
// traced, not end-to-end").
var tails = []metricSpec{
	{"query_p90_us", "us"},
	{"batch_p90_us", "us"},
	{"update_p90_ms", "ms"},
}

// perLayer is what the traced run (--trace 1) reports, layer by layer.
// The traced.* entries are the traced run's own end-to-end values: minus
// the untraced run's, they give the tracing overhead.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		// Build path.
		{"predicate.convert_s", "s"},
		{"predicate.atoms_s", "s"},
		{"aptree.build_s", "s"},
		{"aptree.publish_ms", "ms"},
		{"checkpoint.restore_s", "s"},
		{"checkpoint.bytes", "B"},
		{"bdd.live_mb", "MB"},
		// Query path.
		{"server.decode_ns_per_query", "ns"},
		{"server.encode_ns_per_query", "ns"},
		{"server.self_us", "us"},
		{"netgen.packet_ns", "ns"},
		{"aptree.classify_ns_per_pkt", "ns"},
		{"aptree.depth_mean", "nodes"},
		{"aptree.flat_fallback_share", "ratio"},
		{"network.walk_ns_per_pkt", "ns"},
		{"network.cache_hit_ratio", "ratio"},
		{"network.cache_lookups", "count"},
		{"network.walks_per_query", "count"},
		{"runtime.alloc_bytes_per_query", "B"},
		{"runtime.gc_pause_ms", "ms"},
		// Update path.
		{"apclassifier.apply_ms", "ms"},
		{"apclassifier.lock_wait_us", "us"},
		{"aptree.publishes", "count"},
		{"aptree.publishes_per_batch", "count"},
		{"aptree.useful_publish_ratio", "ratio"},
		{"aptree.delta_touched_per_batch", "count"},
		{"aptree.delta_splits_per_batch", "count"},
		{"aptree.delta_merges_per_batch", "count"},
		{"rule.cone_us", "us"},
		{"predicate.delta_us", "us"},
		// Verification path.
		{"verify.new_ms", "ms"},
		{"verify.loops_s", "s"},
		{"verify.reach_ms", "ms"},
		{"verify.blackholes_ms", "ms"},
		{"server.verify_self_ms", "ms"},
		{"network.walks_per_sweep", "count"},
		// Load generator.
		{"loadgen.late_ms", "ms"},
	}
	for _, e := range append(endToEnd, tails...) {
		m = append(m, metricSpec{"traced." + e.name, e.unit})
	}
	return m
}()
