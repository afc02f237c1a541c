package main

// catalogEntry is one metric as BENCHMARK.json declares it.
type catalogEntry struct {
	name, unit, better string
}

// endToEnd is the --trace 0 metric set, in print order: the metrics a
// user pays for that hold steady on a shared host. Every workload
// reports every one; README.md gives each its meaning per workload.
var endToEnd = []catalogEntry{
	{"cpu_ms_per_round", "ms", "lower"},
	{"frames_ok_frac", "frac", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// informational metrics are measured with the same care and printed
// with the end-to-end ones, but carry no bound: wall-clock rates and
// latencies follow the CPU the hypervisor leaves the VM more than the
// program. On a shared 2-vCPU VM, ten soft4x32 runs read 70 to 121
// rounds/s at 8% steal while the quartile spread of their CPU per round
// was 3% of its median.
var informational = []catalogEntry{
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p99_ms", "ms", "lower"},
	{"step_p50_ms", "ms", "lower"},
	{"step_p99_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
}

// perLayer is the --trace 1 metric set, in print order. Round-path
// figures are per round.
var perLayer = []catalogEntry{
	{"synth.template_ms", "ms", "lower"},
	{"synth.template_calls", "count", "lower"},
	{"air.accumulate_ms", "ms", "lower"},
	{"air.accumulate_calls", "count", "lower"},
	{"air.receive_ms", "ms", "lower"},
	{"air.self_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.combine_ms", "ms", "lower"},
	{"sim.prep_ms", "ms", "lower"},
	{"sim.aggregate_ms", "ms", "lower"},
	{"core.ffts", "count", "lower"},
	{"core.detect_frac", "frac", "higher"},
	{"core.crc_ok_frac", "frac", "higher"},
	{"runtime.allocs_per_round", "count", "lower"},
	{"runtime.gc_per_kround", "count", "lower"},
	{"runtime.sched_wait_p99_us", "us", "lower"},
	{"runtime.cpu_util", "frac", "higher"},
	{"serve.accept_ms_p50", "ms", "lower"},
	{"serve.accept_ms_p99", "ms", "lower"},
	{"serve.read_ms_p50", "ms", "lower"},
	{"serve.read_ms_p99", "ms", "lower"},
	{"pool.fair_wait_ms_p50", "ms", "lower"},
	{"pool.fair_wait_ms_p99", "ms", "lower"},
	{"pool.queued_turns_mean", "count", "lower"},
	{"pool.queued_turns_max", "count", "lower"},
	{"sim.round_static_ms", "ms", "lower"},
	{"sim.round_hostile_ms", "ms", "lower"},
	{"serve.throttled", "count", "lower"},
	{"serve.http_errors", "count", "lower"},
	{"serve.round_errors", "count", "lower"},
	{"serve.stream_missed", "count", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.replica_ratio", "frac", "lower"},
	{"trace.uncovered_frac", "frac", "lower"},
}
