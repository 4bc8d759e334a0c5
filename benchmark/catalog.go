package main

// The metric catalogue: every name the benchmark emits, with its unit
// and direction. BENCHMARK.json at the repo root lists the same names
// (bench_test.go asserts the two agree); README.md holds the
// definitions and the interaction notes.

const (
	wlSimSerial   = "sim-serial"
	wlSimParallel = "sim-parallel"
	wlSweep       = "sweep"
	wlServe       = "serve"
	wlFleet       = "fleet"
)

// workloadNames is the fixed run order.
var workloadNames = []string{wlSimSerial, wlSimParallel, wlSweep, wlServe, wlFleet}

// metricDef describes one catalogue entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is measured with tracing off and is defined on every
// workload (README.md says what the name means on each). The bounds
// are set by the reference sandbox's own run-to-run spread: over ten
// seeds the quartile spread of the timing metrics is up to 16% of the
// median (whole minutes run 5-30% slow), and a bound has to sit clear
// of that to separate a regression from the machine.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"cold_jobs_per_s", "jobs/s", "higher", 0.25},
	{"cold_latency_p50_ms", "ms", "lower", 0.25},
	{"hot_jobs_per_s", "jobs/s", "higher", 0.25},
	{"hot_latency_p50_ms", "ms", "lower", 0.25},
}

// perLayer comes from the traced run. A metric reads 0 on a workload
// whose traced run does not exercise its layer.
var perLayer = []metricDef{
	// internal/noc — traced sim-serial (tiled: sim-parallel).
	{Name: "noc.router_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.idle_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.tick_allocs", Unit: "count", Better: "lower"},
	{Name: "noc.tiled_tick_ns", Unit: "ns", Better: "lower"},
	// internal/core — traced sim-serial (par.*, parallel_speedup: sim-parallel).
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_ns.baseline", Unit: "ns", Better: "lower"},
	{Name: "core.cycle_ns.delegated", Unit: "ns", Better: "lower"},
	{Name: "core.cycle_ns.rp", Unit: "ns", Better: "lower"},
	{Name: "core.cycle_allocs", Unit: "count", Better: "lower"},
	{Name: "core.window_cps.p10", Unit: "cycles/s", Better: "higher"},
	{Name: "core.window_cps.p50", Unit: "cycles/s", Better: "higher"},
	{Name: "core.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "core.phase.net_pct", Unit: "%", Better: "lower"},
	{Name: "core.phase.node_pct", Unit: "%", Better: "lower"},
	{Name: "core.phase.serial_pct", Unit: "%", Better: "lower"},
	{Name: "core.par.net_pct", Unit: "%", Better: "lower"},
	{Name: "core.par.node_pct", Unit: "%", Better: "lower"},
	{Name: "core.par.serial_pct", Unit: "%", Better: "lower"},
	{Name: "core.par.commit_pct", Unit: "%", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "x", Better: "higher"},
	// internal/par — traced sim-parallel.
	{Name: "par.dispatch_ns.tight", Unit: "ns", Better: "lower"},
	{Name: "par.dispatch_ns.spaced", Unit: "ns", Better: "lower"},
	// Simulated statistics (HS+vips) — traced sim-serial; dr_gain_*: sweep.
	// Exact for a given seed: a speed change must leave all of them identical.
	{Name: "model.gpu_ipc.baseline", Unit: "ipc", Better: "higher"},
	{Name: "model.gpu_ipc.delegated", Unit: "ipc", Better: "higher"},
	{Name: "model.gpu_ipc.rp", Unit: "ipc", Better: "higher"},
	{Name: "model.mem_blocked_rate.baseline", Unit: "fraction", Better: "lower"},
	{Name: "model.mem_blocked_rate.delegated", Unit: "fraction", Better: "lower"},
	{Name: "model.mem_blocked_rate.rp", Unit: "fraction", Better: "lower"},
	{Name: "model.cpu_lat.baseline", Unit: "cycles", Better: "lower"},
	{Name: "model.cpu_lat.delegated", Unit: "cycles", Better: "lower"},
	{Name: "model.cpu_lat.rp", Unit: "cycles", Better: "lower"},
	{Name: "model.fwd_miss_frac", Unit: "fraction", Better: "higher"},
	{Name: "model.remote_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "model.l1_miss_rate", Unit: "fraction", Better: "lower"},
	{Name: "model.llc_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "model.delegations", Unit: "count", Better: "higher"},
	{Name: "model.flit_hops", Unit: "count", Better: "lower"},
	{Name: "model.dr_gain_pct", Unit: "%", Better: "higher"},
	{Name: "model.dr_gain_error_pp", Unit: "pp", Better: "lower"},
	// internal/simspec, internal/runner, CLI — traced sweep.
	{Name: "simspec.resolve_us", Unit: "us", Better: "lower"},
	{Name: "simspec.encode_us", Unit: "us", Better: "lower"},
	{Name: "runner.key_us", Unit: "us", Better: "lower"},
	{Name: "runner.memo_hit_us", Unit: "us", Better: "lower"},
	{Name: "runner.dedup_join_us", Unit: "us", Better: "lower"},
	{Name: "runner.disk_get_us", Unit: "us", Better: "lower"},
	{Name: "runner.disk_put_us", Unit: "us", Better: "lower"},
	{Name: "runner.cold_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "runner.worker_idle_pct", Unit: "%", Better: "lower"},
	{Name: "runner.executed", Unit: "count", Better: "lower"},
	{Name: "runner.memo_hits", Unit: "count", Better: "higher"},
	{Name: "runner.disk_hits", Unit: "count", Better: "higher"},
	{Name: "runner.failed", Unit: "count", Better: "lower"},
	{Name: "runner.useful_ratio", Unit: "fraction", Better: "higher"},
	{Name: "cli.delrepsim_startup_ms", Unit: "ms", Better: "lower"},
	// internal/serve — traced serve.
	{Name: "serve.submit_hot_us.p50", Unit: "us", Better: "lower"},
	{Name: "serve.submit_hot_us.p99", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.http_receive_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.admission_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.runner_submit_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.reply_us", Unit: "us", Better: "lower"},
	{Name: "serve.span.engine_run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.span.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_vs_direct_pct", Unit: "%", Better: "lower"},
	{Name: "serve.telemetry_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "serve.rss_per_kjob_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.hot_drift_pct", Unit: "%", Better: "higher"},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejects", Unit: "count", Better: "lower"},
	{Name: "serve.cold_latency_p75_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hot_latency_p99_ms", Unit: "ms", Better: "lower"},
	// internal/fleet — traced fleet.
	{Name: "fleet.submit_hot_us.p50", Unit: "us", Better: "lower"},
	{Name: "fleet.submit_hot_us.p99", Unit: "us", Better: "lower"},
	{Name: "fleet.hop_overhead_us", Unit: "us", Better: "lower"},
	{Name: "fleet.cold_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "fleet.span.attempt_us", Unit: "us", Better: "lower"},
	{Name: "fleet.probe_hits", Unit: "count", Better: "higher"},
	{Name: "fleet.probe_misses", Unit: "count", Better: "lower"},
	{Name: "fleet.dispatches", Unit: "count", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.steals", Unit: "count", Better: "lower"},
	{Name: "fleet.worker_imbalance", Unit: "x", Better: "lower"},
	{Name: "fleet.colocated_pct", Unit: "%", Better: "lower"},
	{Name: "fleet.failover_recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.cold_latency_p75_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.hot_latency_p99_ms", Unit: "ms", Better: "lower"},
	// internal/obs and the benchmark's own recorder.
	{Name: "obs.observer_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// unitOf resolves a catalogue name to its unit ("" if unknown).
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
