package main

// catalog.go — every metric the benchmark reports, with its unit and
// direction. BENCHMARK.json lists the same names and units (a test keeps
// the two in step).

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the system sees; a --trace 0 run reports
// every entry. The p99s and the rate limit are user-visible too, but
// they follow the host's stalls too closely for a regression bound on
// small shared machines; they are reported with the per-layer metrics
// instead, unbounded.
var endToEnd = []metricDef{
	{"grid_points_per_s", "1/s", "higher"},
	{"classify_p50_ms", "ms", "lower"},
	{"sweep_points_per_s", "1/s", "higher"},
	{"sweep_p50_ms", "ms", "lower"},
	{"hot_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is what a --trace 1 run reports: single layers, read from the
// benchmark's spans around each layer and from the program's own
// counters.
var perLayer = []metricDef{
	{"http.client_us_p50", "us", "lower"},
	{"serve.handler_us_p50", "us", "lower"},
	{"http.transport_us_p50", "us", "lower"},
	{"cluster.router_us_p50", "us", "lower"},
	{"cluster.hop_us_p50", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.load_us_p50", "us", "lower"},
	{"kernelreg.compile_ms_p50", "ms", "lower"},
	{"refstream.capture_ns_per_event", "ns", "lower"},
	{"refstream.memo_build_ms", "ms", "lower"},
	{"refstream.batch_ns_per_event_config.nocache", "ns", "lower"},
	{"refstream.batch_ns_per_event_config.lru", "ns", "lower"},
	{"refstream.batch_ns_per_event_config.fifo_clock", "ns", "lower"},
	{"runtime.alloc_bytes_per_point", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"serve.decode_us_p50", "us", "lower"},
	{"serve.cache_lookup_us_p50", "us", "lower"},
	{"serve.encode_us_p50", "us", "lower"},
	{"serve.replay_us_p50", "us", "lower"},
	{"serve.replay_us_p99", "us", "lower"},
	{"serve.flight_wait_us_p99", "us", "lower"},
	{"serve.admit_wait_us_p99", "us", "lower"},
	{"serve.capture_us_p99", "us", "lower"},
	{"serve.result_hit_ratio", "ratio", "higher"},
	{"serve.stream_captures", "count", "lower"},
	{"serve.points_executed", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"cluster.forwards", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"store.hits", "count", "higher"},
	{"store.load_errors", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unaccounted_frac", "ratio", "lower"},
	{"error_rate", "ratio", "lower"},
	{"classify_p99_ms", "ms", "lower"},
	{"classify_slo_rps", "1/s", "higher"},
	{"hot_p99_ms", "ms", "lower"},
	{"sweep_p99_ms", "ms", "lower"},
}
