package main

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric; BENCHMARK.json lists the same names,
// units and directions, which the self-test checks. moves names, for a
// per-layer metric, the end-to-end metric it should move and where.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"eval_s", "s", "lower", ""},
	{"warm_eval_s", "s", "lower", ""},
	{"publish_s", "s", "lower", ""},
	{"query_p50_ms", "ms", "lower", ""},
	{"query_p99_ms", "ms", "lower", ""},
	{"fit_s", "s", "lower", ""},
	{"fit_err_max", "ratio", "lower", ""},
	{"paper_rank_mean", "rho", "higher", ""},
	{"paper_ratio_err", "ln-ratio", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
	{"fail_frac", "ratio", "lower", ""},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"machines.builds", "count", "lower", "setup_s on every workload"},
	{"machines.build_s", "s", "lower", "setup_s on every workload; eval_s on catalog-fleet through fleet.unit_overhead_s"},
	{"sim.mem_s", "s", "lower", "eval_s on paper-cold; no change predicted on catalog-fleet"},
	{"sim.mem_calls", "count", "lower", "eval_s on paper-cold"},
	{"sim.os_s", "s", "lower", "eval_s on paper-cold"},
	{"sim.os_calls", "count", "lower", "eval_s on paper-cold"},
	{"sim.net_s", "s", "lower", "eval_s on paper-cold"},
	{"sim.fs_s", "s", "lower", "eval_s on paper-cold"},
	{"sim.disk_s", "s", "lower", "eval_s on paper-cold"},
	{"simmem.probes", "count", "lower", "eval_s on paper-cold"},
	{"simmem.ns_per_probe", "ns", "lower", "eval_s on paper-cold"},
	{"simmem.mru_hit_ratio", "ratio", "higher", "eval_s on paper-cold"},
	{"simmem.tlb_misses", "count", "lower", "eval_s on paper-cold"},
	{"simmem.writebacks", "count", "lower", "eval_s on paper-cold"},
	{"core.units", "count", "higher", "fail_frac on every workload"},
	{"core.retries", "count", "lower", "fail_frac on every workload"},
	{"core.failed", "count", "lower", "fail_frac on every workload"},
	{"core.unit_s.mem_hier", "s", "lower", "eval_s on paper-cold"},
	{"core.unit_s.table2", "s", "lower", "eval_s on paper-cold"},
	{"core.unit_s.table5", "s", "lower", "eval_s on paper-cold"},
	{"core.unit_s.ctx", "s", "lower", "eval_s on paper-cold"},
	{"core.unit_s.table3", "s", "lower", "eval_s on paper-cold"},
	{"core.unit_s.rest", "s", "lower", "eval_s on paper-cold"},
	{"core.harness_self_s", "s", "lower", "eval_s on catalog-fleet"},
	{"timing.batches", "count", "lower", "eval_s on paper-cold and catalog-fleet"},
	{"timing.calibrations", "count", "lower", "eval_s on paper-cold and catalog-fleet"},
	{"fleet.workers_started", "count", "lower", "eval_s on catalog-fleet"},
	{"fleet.worker_deaths", "count", "lower", "eval_s on catalog-fleet"},
	{"fleet.units_retried", "count", "lower", "eval_s on catalog-fleet"},
	{"fleet.dispatch_wait_p50_ms", "ms", "lower", "eval_s on catalog-fleet"},
	{"fleet.dispatch_wait_p99_ms", "ms", "lower", "eval_s on catalog-fleet"},
	{"fleet.unit_overhead_s", "s", "lower", "eval_s on catalog-fleet"},
	{"journal.records", "count", "lower", "eval_s on catalog-fleet"},
	{"journal.bytes", "bytes", "lower", "eval_s on catalog-fleet"},
	{"unitcache.hits", "count", "higher", "warm_eval_s on catalog-fleet"},
	{"unitcache.misses", "count", "lower", "eval_s on catalog-fleet"},
	{"unitcache.hit_ratio", "ratio", "higher", "warm_eval_s on catalog-fleet"},
	{"unitcache.bytes_stored", "bytes", "lower", "eval_s on catalog-fleet"},
	{"unitcache.lookup_s", "s", "lower", "warm_eval_s on catalog-fleet"},
	{"unitcache.store_s", "s", "lower", "eval_s on catalog-fleet"},
	{"results.encode_s", "s", "lower", "publish_s on catalog-fleet"},
	{"results.db_bytes", "bytes", "lower", "publish_s on catalog-fleet"},
	{"store.render_misses", "count", "lower", "query_p99_ms on catalog-fleet"},
	{"store.render_hits", "count", "higher", "query_p50_ms on catalog-fleet"},
	{"store.not_modified", "count", "higher", "query_p50_ms on catalog-fleet"},
	{"store.render_hit_ratio", "ratio", "higher", "query_p50_ms on catalog-fleet"},
	{"store.render_p50_ms", "ms", "lower", "query_p99_ms on catalog-fleet"},
	{"store.hit_p50_ms", "ms", "lower", "query_p50_ms on catalog-fleet"},
	{"calibrate.evals", "count", "lower", "fit_s on calibrate-fit"},
	{"calibrate.s_per_eval", "s", "lower", "fit_s on calibrate-fit"},
	{"calibrate.pass_s.serial", "s", "lower", "fit_s on calibrate-fit"},
	{"calibrate.pass_s.geometry", "s", "lower", "fit_s on calibrate-fit"},
	{"calibrate.pass_s.parallel", "s", "lower", "fit_s on calibrate-fit"},
	{"calibrate.pass_s.verify", "s", "lower", "fit_s on calibrate-fit"},
	{"trace.overhead_frac", "ratio", "lower", "none: the traced pass's own cost, which bounds how far the per-layer numbers can be trusted"},
}

// layerTable is the line a traced run prints before its result: each
// per-layer metric with the end-to-end metric and workload it should
// move.
func layerTable() []map[string]string {
	out := make([]map[string]string, len(perLayer))
	for i, d := range perLayer {
		out[i] = map[string]string{"metric": d.name, "unit": d.unit, "moves": d.moves}
	}
	return out
}
