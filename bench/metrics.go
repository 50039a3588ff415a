package main

import (
	"math"

	"dualgraph/internal/stats"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the baseline median
}

// e2eDefs are the end-to-end metrics, measured on untraced runs of the
// real binaries. Every workload reports every one of them.
//
// A bound must hold two sets of ten runs of one commit, minutes apart,
// within it: each set's quartile spread and the gap between their medians.
// On a shared 2-CPU microVM the machine's speed drifts by up to 35% over a
// few minutes, and the time-based metrics spread by up to 20% across ten
// seeds, so the time-based bounds are 25%: there, a smaller regression
// cannot be told from the drift. Peak RSS, taken as the lower quartile of a
// run's reps, drifted by under 7% but spread by up to 11% across seeds, so
// its bound is 15%. setup_s gets the widest bound, so that work moved into
// set-up shows.
var e2eDefs = []metricDef{
	{"trials_per_s", "trials/s", "higher", 0.25},
	{"sim_rounds_per_s", "rounds/s", "higher", 0.25},
	{"cpu_ms_per_trial", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
}

// layerDefs are the per-layer metrics every workload's traced pass reports.
// Layers that only some workloads exercise (checkpoint, service, adversary
// forking) are reported in the suite's report file instead, so that no
// listed time is zero by construction.
var layerDefs = []metricDef{
	{name: "spec.cells_s", unit: "s", better: "lower"},
	{name: "spec.build_s", unit: "s", better: "lower"},
	{name: "spec.format_s", unit: "s", better: "lower"},
	{name: "graph.epoch_calls", unit: "count", better: "lower"},
	{name: "graph.epoch_swaps", unit: "count", better: "lower"},
	{name: "graph.epoch_s", unit: "s", better: "lower"},
	{name: "graph.epoch_us_per_call", unit: "us", better: "lower"},
	{name: "sim.trials", unit: "count", better: "higher"},
	{name: "sim.rounds", unit: "count", better: "lower"},
	{name: "sim.node_rounds", unit: "count", better: "lower"},
	{name: "sim.trial_s", unit: "s", better: "lower"},
	{name: "sim.trial_setup_s", unit: "s", better: "lower"},
	{name: "sim.trial_setup_us_per_node", unit: "us", better: "lower"},
	{name: "sim.loop_self_s", unit: "s", better: "lower"},
	{name: "sim.loop_ns_per_node_round", unit: "ns", better: "lower"},
	{name: "sim.alloc_kb_per_trial", unit: "KB", better: "lower"},
	{name: "sim.mallocs_per_trial", unit: "count", better: "lower"},
	{name: "core.newprocess_s", unit: "s", better: "lower"},
	{name: "core.start_s", unit: "s", better: "lower"},
	{name: "core.decide_calls", unit: "count", better: "lower"},
	{name: "core.decide_s", unit: "s", better: "lower"},
	{name: "core.receive_calls", unit: "count", better: "lower"},
	{name: "core.receive_s", unit: "s", better: "lower"},
	{name: "adversary.deliver_calls", unit: "count", better: "lower"},
	{name: "adversary.deliver_s", unit: "s", better: "lower"},
	{name: "adversary.resolve_calls", unit: "count", better: "lower"},
	{name: "adversary.resolve_s", unit: "s", better: "lower"},
	{name: "adversary.assign_s", unit: "s", better: "lower"},
	{name: "engine.shards", unit: "count", better: "lower"},
	{name: "engine.fold_s", unit: "s", better: "lower"},
	{name: "engine.merge_s", unit: "s", better: "lower"},
	{name: "engine.utilization", unit: "ratio", better: "higher"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
}

// extraLayerDefs are per-layer numbers only some workloads produce; they
// appear in the report file and the human-readable output.
var extraLayerDefs = []metricDef{
	{name: "adversary.fork_s", unit: "s", better: "lower"},
	{name: "checkpoint.records", unit: "count", better: "lower"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower"},
	{name: "checkpoint.append_s", unit: "s", better: "lower"},
	{name: "service.job_p90_s", unit: "s", better: "lower"},
	{name: "service.submit_s", unit: "s", better: "lower"},
	{name: "service.first_line_s", unit: "s", better: "lower"},
	{name: "service.done_lag_s", unit: "s", better: "lower"},
	{name: "service.bytes", unit: "bytes", better: "lower"},
}

// quantile is stats.Quantile with an empty sample read as NaN, which a
// result line refuses to carry.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
