package main

import (
	"fmt"

	"spotserve/internal/experiments"
	"spotserve/internal/model"
	"spotserve/internal/trace"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with --trace 0. Every
// workload runs jobs: sub-grid and figure sweeps back to back in-process
// for the batch workloads, HTTP jobs for the daemon (DESIGN.md).
var endToEndMetrics = []metricDef{
	{"runs_per_s", "1/s", "higher"},
	{"alloc_mb_per_run", "MB", "lower"},
	{"job_ttfr_ms_p50", "ms", "lower"},
	{"job_ttfr_ms_p90", "ms", "lower"},
	{"fresh_job_ms_p50", "ms", "lower"},
	{"fresh_job_ms_p90", "ms", "lower"},
	{"cached_job_ms_p50", "ms", "lower"},
	{"job_slo_share", "share", "higher"},
	{"daemon_jobs_per_s", "1/s", "higher"},
	{"ok_share", "share", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics are reported by every workload with --trace 1. A layer
// the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"experiments.run_ms_p50", "ms", "lower"},
	{"experiments.pool_overhead_share", "share", "lower"},
	{"experiments.fingerprint_us", "us", "lower"},
	{"scenario.cells_ms", "ms", "lower"},
	{"scenario.trace_gen_us", "us", "lower"},
	{"scenario.build_row_us", "us", "lower"},
	{"scenario.render_ms", "ms", "lower"},
	{"market.curve_gen_us", "us", "lower"},
	{"workload.generate_us", "us", "lower"},
	{"sim.events_per_run", "count", "lower"},
	{"sim.events_per_host_ms", "1/ms", "higher"},
	{"core.requests_per_run", "count", "higher"},
	{"core.completed_share", "share", "higher"},
	{"core.migrations_per_run", "count", "lower"},
	{"core.reloads_per_run", "count", "lower"},
	{"core.config_changes_per_run", "count", "lower"},
	{"core.tokens_recovered_per_run", "count", "higher"},
	{"reconfig.lookups_per_run", "count", "lower"},
	{"reconfig.proposal_hit_share", "share", "higher"},
	{"reconfig.mapping_hit_share", "share", "higher"},
	{"reconfig.plan_hit_share", "share", "higher"},
	{"reconfig.shift_miss_share", "share", "lower"},
	{"reconfig.propose_us", "us", "lower"},
	{"reconfig.map_us", "us", "lower"},
	{"reconfig.plan_us", "us", "lower"},
	{"km.solves_per_run", "count", "lower"},
	{"km.warm_hit_share", "share", "higher"},
	{"cost.feasible_shapes_ns", "ns", "lower"},
	{"cost.exec_ns", "ns", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.inflight_jobs_p90", "count", "lower"},
	{"serve.cache_hit_share", "share", "higher"},
	{"serve.stream_bytes_per_job", "bytes", "lower"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.generator_late_ms_max", "ms", "lower"},
	{"serve.open_loop_ttfr_ms_p50", "ms", "lower"},
	{"serve.open_loop_fresh_ms_p90", "ms", "lower"},
	{"serve.open_loop_cached_ms_p50", "ms", "lower"},
	{"process.peak_live_heap_mb", "MB", "lower"},
	{"tracing.runs_per_s_delta", "1/s", "higher"},
	{"tracing.fresh_job_ms_p50_delta", "ms", "lower"},
	{"fail_share", "share", "lower"},
}

// goldenFigure6FP is the fingerprint TestGoldenFigure6Cell pins: SpotServe
// serving GPT-20B on B_S at seed 42.
const goldenFigure6FP = "331a3221e335d60394908415b1612d05389e8109584eb012ba99efaa11a323fc"

// checkGoldenAnchor reruns the golden Figure-6 cell, so a run on a tree
// whose simulated physics drifted fails even if it is self-consistent.
func checkGoldenAnchor() error {
	r := experiments.Run(experiments.DefaultScenario(experiments.SpotServe, model.GPT20B, trace.BS(), 42))
	if fp := r.Fingerprint(); fp != goldenFigure6FP {
		return fmt.Errorf("golden Figure-6 anchor: fingerprint %s, want %s", fp, goldenFigure6FP)
	}
	return nil
}
