package main

// metric describes one reported figure. BENCHMARK.json at the
// repository root lists the same names, units and directions; the
// package test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening, as a share of the baseline median
}

// endToEnd are the figures a user of numaperf sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_mops_per_s", "Mop/s", "higher", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"resume_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the figures of single layers, measured in traced
// iterations. A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"memsim.accesses", "count", "lower", 0},
	{"memsim.l1_miss", "count", "lower", 0},
	{"memsim.l2_miss", "count", "lower", 0},
	{"memsim.l3_miss", "count", "lower", 0},
	{"memsim.dtlb_walks", "count", "lower", 0},
	{"memsim.l2_pf_requests", "count", "lower", 0},

	{"exec.ns_per_sim_op", "ns", "lower", 0},
	{"exec.chunks", "count", "lower", 0},
	{"exec.runs", "count", "lower", 0},
	{"exec.new_engine_ms_p50", "ms", "lower", 0},
	{"exec.new_engine_mb", "MB", "lower", 0},

	{"perf.measure_ms", "ms", "lower", 0},
	{"perf.batches", "count", "lower", 0},
	{"perf.samples_kept", "count", "higher", 0},
	{"perf.samples_dropped", "count", "lower", 0},
	{"perf.loss_rate", "ratio", "lower", 0},
	{"perf.duty_cycle", "ratio", "higher", 0},

	{"evsel.compare_ms", "ms", "lower", 0},

	{"campaign.cells", "count", "higher", 0},
	{"campaign.retries", "count", "lower", 0},
	{"campaign.gaps", "count", "lower", 0},
	{"campaign.cell_ms_p50", "ms", "lower", 0},
	{"campaign.cell_ms_p90", "ms", "lower", 0},
	{"campaign.worker_busy_frac", "ratio", "higher", 0},
	{"campaign.replay_ms", "ms", "lower", 0},

	{"journal.appends", "count", "lower", 0},
	{"journal.bytes", "bytes", "lower", 0},
	{"journal.syncs", "count", "lower", 0},
	{"journal.write_us_p50", "us", "lower", 0},
	{"journal.fsync_us_p50", "us", "lower", 0},
	{"journal.fsync_us_p90", "us", "lower", 0},
	{"journal.fsync_share", "ratio", "lower", 0},
	{"journal.read_ms", "ms", "lower", 0},

	{"memhist.handle_ms_p50", "ms", "lower", 0},
	{"memhist.handle_ms_p90", "ms", "lower", 0},

	{"probenet.bytes_in", "bytes", "lower", 0},
	{"probenet.bytes_out", "bytes", "lower", 0},
	{"probenet.writes", "count", "lower", 0},
	{"probenet.write_us_p50", "us", "lower", 0},

	{"fleet.dispatch_wait_ms_p50", "ms", "lower", 0},
	{"fleet.dispatch_wait_ms_p90", "ms", "lower", 0},
	{"fleet.commit_wait_ms_p50", "ms", "lower", 0},
	{"fleet.probe_busy_frac", "ratio", "higher", 0},
	{"fleet.redispatches", "count", "lower", 0},
	{"fleet.backpressure", "count", "lower", 0},
	{"fleet.gaps", "count", "lower", 0},

	{"trace_overhead_frac", "ratio", "lower", 0},
}
