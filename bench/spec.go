package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds and the per-layer metrics. The
// BENCHMARK.json at the root of the repository is `-spec` printed from these
// tables, and a test holds the two together.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run)
}

// runSeconds is how long one run measures.
const runSeconds = 20

var workloads = []workloadSpec{
	{"cv_local", "the paper's workflow in-process (PCA, RF and KNN 5-fold CV on 1000x280): kernels and estimators do the work and exec none, so a wire change must not show here", func(r *run) { runCV(r, false) }},
	{"cv_remote", "the same passes on 2 loopback workers: about 2.8k small exec tasks per pass, so per-task wire, codec and placement cost dominates", func(r *run) { runCV(r, true) }},
	{"gram_remote", "a 2400x256 Gram reduction on 2 workers, alternating with the same reduction in-process: few tasks with MB payloads, so bulk transfer dominates and dispatch is negligible", runGram},
	{"task_storm", "in-process no-op tasks as fan-out, chain, reduction tree and nested submits, then Submit+Get of one task: only the compss runtime works; kernels and exec do nothing", runStorm},
	{"serve_steady", "open-loop serving well inside capacity (4000 streams, one window per stream per second): latency-bound, nothing is refused", func(r *run) { runServe(r, false) }},
	{"serve_overload", "the same server near its limit (24000 streams arriving over 8 s, 24k windows/s at the peak): batches fill, admission refuses streams, the tail grows; losing a fifth of capacity tips it into collapse", func(r *run) { runServe(r, true) }},
}

// endToEnd are the metrics a user of taskml sees. Every workload reports
// every one; README.md says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"good_share", "share", "higher", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced run. Those in
// a time unit come from the layer tour, which every traced run repeats on
// pinned shapes; the rest are counts, shares and ratios read at the layer
// boundary while the workload ran, and are 0 for a layer it never entered.
var perLayer = []metricSpec{
	// mat: kernels on the workloads' own shapes.
	{Name: "mat.gemm256_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.mulatb_300x256_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.eigsym280_ms", Unit: "ms", Better: "lower"},
	{Name: "mat.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	// sigproc, core, edge: one 8 s window at 100 Hz.
	{Name: "sigproc.spectrogram800_us", Unit: "us", Better: "lower"},
	{Name: "core.featurize_us", Unit: "us", Better: "lower"},
	{Name: "core.classify_us", Unit: "us", Better: "lower"},
	{Name: "edge.run_us_per_window", Unit: "us", Better: "lower"},
	// dsarray and the estimators: timed calls, then task time by module.
	{Name: "dsarray.gram_local_ms", Unit: "ms", Better: "lower"},
	{Name: "preproc.self_share", Unit: "share", Better: "lower"},
	{Name: "forest.self_share", Unit: "share", Better: "lower"},
	{Name: "knn.self_share", Unit: "share", Better: "lower"},
	{Name: "dsarray.self_share", Unit: "share", Better: "lower"},
	{Name: "preproc.tasks", Unit: "count", Better: "lower"},
	{Name: "preproc.task_run_share", Unit: "share", Better: "lower"},
	{Name: "forest.tasks", Unit: "count", Better: "lower"},
	{Name: "forest.task_run_share", Unit: "share", Better: "lower"},
	{Name: "knn.tasks", Unit: "count", Better: "lower"},
	{Name: "knn.task_run_share", Unit: "share", Better: "lower"},
	{Name: "dsarray.tasks", Unit: "count", Better: "lower"},
	{Name: "dsarray.task_run_share", Unit: "share", Better: "lower"},
	{Name: "core.tasks", Unit: "count", Better: "lower"},
	{Name: "core.task_run_share", Unit: "share", Better: "lower"},
	// compss: the four storm shapes and one Submit+Get, then the observer.
	{Name: "compss.submit_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "compss.fanout_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "compss.chain_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "compss.tree_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "compss.nested_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "compss.submit_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "compss.submit_get_p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "compss.observer_overhead_share", Unit: "share", Better: "lower"},
	{Name: "compss.self_share", Unit: "share", Better: "lower"},
	{Name: "compss.tasks", Unit: "count", Better: "lower"},
	{Name: "compss.wait_deps_s", Unit: "s", Better: "lower"},
	{Name: "compss.queued_s", Unit: "s", Better: "lower"},
	{Name: "compss.run_s", Unit: "s", Better: "lower"},
	{Name: "compss.stolen_share", Unit: "share", Better: "lower"},
	{Name: "compss.attempts_failed", Unit: "count", Better: "lower"},
	// exec: a direct echo round trip, then Remote.Stats deltas per repetition.
	{Name: "exec.spawn_s", Unit: "s", Better: "lower"},
	{Name: "exec.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "exec.bulk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "exec.self_share", Unit: "share", Better: "lower"},
	{Name: "exec.dispatched", Unit: "count", Better: "lower"},
	{Name: "exec.coord_bytes_sent", Unit: "B", Better: "lower"},
	{Name: "exec.coord_bytes_recv", Unit: "B", Better: "lower"},
	{Name: "exec.peer_bytes", Unit: "B", Better: "lower"},
	{Name: "exec.peer_fetches", Unit: "count", Better: "lower"},
	{Name: "exec.peer_fallbacks", Unit: "count", Better: "lower"},
	{Name: "exec.ref_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.miss_retries", Unit: "count", Better: "lower"},
	{Name: "exec.failed", Unit: "count", Better: "lower"},
	{Name: "exec.remote_over_local", Unit: "ratio", Better: "lower"},
	{Name: "exec.task_run_over_local", Unit: "ratio", Better: "lower"},
	{Name: "exec.worker_cpu_share", Unit: "share", Better: "lower"},
	// serve: timed calls on a light session, then the loaded server's counts.
	{Name: "serve.push_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.push_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.admit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.batch_score_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.score_us_per_window", Unit: "us", Better: "lower"},
	{Name: "serve.self_share", Unit: "share", Better: "lower"},
	{Name: "serve.score_us_over_probe", Unit: "ratio", Better: "lower"},
	{Name: "serve.batch_score_p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.inflight_max", Unit: "count", Better: "lower"},
	{Name: "serve.pending_max", Unit: "count", Better: "lower"},
	{Name: "serve.admitted", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.score_errors", Unit: "count", Better: "lower"},
	{Name: "serve.alarms", Unit: "count", Better: "higher"},
	{Name: "serve.alarms_expected", Unit: "count", Better: "higher"},
	{Name: "serve.alarm_p99_over_p50", Unit: "ratio", Better: "lower"},
	{Name: "serve.alarm_slo_miss_share", Unit: "share", Better: "lower"},
	{Name: "serve.window_p99_over_slo_reported", Unit: "ratio", Better: "lower"},
	{Name: "serve.driver_late_share", Unit: "share", Better: "lower"},
	{Name: "serve.driver_late_p99_over_slo", Unit: "ratio", Better: "lower"},
	// graph and cluster: the figure-regeneration path.
	{Name: "graph.tasks_captured", Unit: "count", Better: "lower"},
	{Name: "cluster.replay_ms", Unit: "ms", Better: "lower"},
	// the harness itself.
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "box.spin_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "box.walk_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "box.drift_factor", Unit: "ratio", Better: "lower"},
	{Name: "box.spin_slow_share", Unit: "share", Better: "lower"},
	{Name: "harness.self_share", Unit: "share", Better: "lower"},
	{Name: "harness.reps", Unit: "count", Better: "higher"},
	{Name: "harness.measured_s", Unit: "s", Better: "lower"},
	{Name: "harness.cpu_s", Unit: "s", Better: "lower"},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
