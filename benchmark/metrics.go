package main

import "fmt"

// Workload names are fixed: later issues cite them.
const (
	wlScreenM1      = "screen_m1"
	wlScreenM4      = "screen_m4"
	wlTablesModeled = "tables_modeled"
	wlServiceOpen   = "service_open"
	wlDistSmall     = "dist_small"
	wlDistLarge     = "dist_large"
)

var workloadNames = []string{wlScreenM1, wlScreenM4, wlTablesModeled, wlServiceOpen, wlDistSmall, wlDistLarge}

// metricDef mirrors one entry of BENCHMARK.json. Bound is only meaningful
// for end-to-end metrics. The tables here and the JSON file must agree; a
// self-test compares them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	mSetup      = "setup_s"
	mLigandsPS  = "ligands_per_s"
	mLatencyP50 = "job_latency_p50_ms"
)

// endToEnd lists the gated metrics. Every workload reports all of them with
// --trace 0; what a "job" and a "ligand" are on each workload is in the
// README.
var endToEnd = []metricDef{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mLigandsPS, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mLatencyP50, Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the ungated layer metrics, in the order the README's map
// discusses them. A traced run reports every name; a metric whose layer the
// workload does not exercise (or that the workload does not measure) reads 0.
var perLayer = []metricDef{
	{Name: "forcefield.nl_score_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "forcefield.nl_batch_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "forcefield.full_score_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "forcefield.direct_mpairs_per_s", Unit: "Mpairs/s", Better: "higher"},
	{Name: "forcefield.nl_build_us", Unit: "us", Better: "lower"},

	{Name: "core.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.evals_total", Unit: "count", Better: "lower"},
	{Name: "core.score_batch_share", Unit: "share", Better: "lower"},
	{Name: "core.improve_batch_share", Unit: "share", Better: "lower"},
	{Name: "core.engine_self_share", Unit: "share", Better: "lower"},
	{Name: "core.backend_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.problem_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.parallel_efficiency", Unit: "share", Better: "higher"},
	{Name: "core.peak_heap_mb", Unit: "MB", Better: "lower"},

	{Name: "metaheuristic.host_us_per_eval_m1", Unit: "us", Better: "lower"},
	{Name: "metaheuristic.host_us_per_eval_m4", Unit: "us", Better: "lower"},

	{Name: "sched.speedup_het_min_hertz", Unit: "x", Better: "higher"},
	{Name: "sched.speedup_het_min_jupiter", Unit: "x", Better: "higher"},
	{Name: "sched.speedup_het_min_jupiter_half", Unit: "x", Better: "higher"},
	{Name: "sched.sim_het_s", Unit: "sim_s", Better: "lower"},
	{Name: "sched.warmup_percent_k40c", Unit: "share", Better: "higher"},
	{Name: "sched.device_idle_share_het", Unit: "share", Better: "lower"},

	{Name: "cudasim.kernels_launched", Unit: "count", Better: "lower"},
	{Name: "cudasim.host_us_per_launch", Unit: "us", Better: "lower"},

	{Name: "tables.replay_s", Unit: "s", Better: "lower"},
	{Name: "tables.row_s_max", Unit: "s", Better: "lower"},

	{Name: "wal.append_us_always", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_interval", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_never", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_job", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "wal.sync_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "admission.queue_op_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.limiter_op_ns", Unit: "ns", Better: "lower"},

	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.poll_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.trace_compute_share", Unit: "share", Better: "higher"},
	{Name: "service.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "service.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.shed_share", Unit: "share", Better: "lower"},
	{Name: "service.jobs_per_s_max", Unit: "1/s", Better: "higher"},
	{Name: "service.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "dist.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.polls_per_screen", Unit: "count", Better: "lower"},
	{Name: "dist.partial_bytes_per_screen", Unit: "B", Better: "lower"},
	{Name: "dist.poll_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.dispatch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.efficiency_vs_1node", Unit: "share", Better: "higher"},
	{Name: "dist.shard_imbalance", Unit: "share", Better: "lower"},
	{Name: "dist.ligands_merged", Unit: "count", Better: "higher"},
	{Name: "dist.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.coordinator_peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.recorder_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "harness.build_s", Unit: "s", Better: "lower"},
}

// metricValue is one reported number with its unit, as the result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics against one definition table, so a
// typo in a metric name fails loudly instead of adding a stray key.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

// newMetricSet starts every defined metric at 0.
func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		ms.defs[d.Name] = d
		ms.values[d.Name] = metricValue{Unit: d.Unit}
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	d, ok := ms.defs[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not defined", name))
	}
	ms.values[name] = metricValue{Value: v, Unit: d.Unit}
}
