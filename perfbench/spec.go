package main

// The four workloads. The batch ones have fixed inputs (the paper's
// grids); the seed drives only the netlocd request schedule.
const (
	wlPaper      = "paper-grid"
	wlCongestion = "congestion-grid"
	wlDesign     = "design-search"
	wlNetlocd    = "netlocd-mixed"
)

var workloadNames = []string{wlPaper, wlCongestion, wlDesign, wlNetlocd}

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which the metric may get worse before a change
// counts as a regression; zero means the metric has no bound (per-layer
// metrics and counts), so the comparison tool can call it improved or
// worse but never "no worse" on a moved median.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports with --trace 0; they
// are the end_to_end list of BENCHMARK.json (TestBenchmarkJSONMatchesSpecs
// keeps the two in step).
//
// The bounds follow the spread measured on a shared 2-CPU host, where
// the same code drifts by 10-20% over minutes: wall_s and max_rss_mb
// (GC-timed on the small congestion heap) need the widest bound the
// benchmark allows, while alloc_mb repeats to within 0.2%.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// ledgerMetrics are end-to-end metrics that cannot go on the result
// line, which must carry the same nonzero metrics on every workload:
// error_rate is 0 on a healthy run, and the rest are netlocd-mixed's
// own. They are printed, recorded in the run ledger and compared by the
// comparison tool.
var ledgerMetrics = []metricSpec{
	{"req_per_s", "1/s", "higher", 0.25},
	{"hot_p50_ms", "ms", "lower", 0.25},
	{"hot_p99_ms", "ms", "lower", 0.25},
	{"cold_p90_ms", "ms", "lower", 0.25},
	{"upload_p90_ms", "ms", "lower", 0.25},
	{"error_rate", "ratio", "lower", 0},
}

// layer names one per-layer metric; which end-to-end metric each should
// move is tabled in README.md.
func layer(wl, name, unit, better string) metricSpec {
	return metricSpec{Name: wl + "." + name, Unit: unit, Better: better}
}

// perLayer are the metrics the traced run prints. One traced run covers
// all four workloads, so each name carries its workload as a prefix.
var perLayer = []metricSpec{
	layer(wlPaper, "workloads.generate_s", "s", "lower"),
	layer(wlPaper, "workloads.events", "count", "lower"),
	layer(wlPaper, "comm.accumulate_s", "s", "lower"),
	layer(wlPaper, "metrics.locality_s", "s", "lower"),
	layer(wlPaper, "topology.build_s", "s", "lower"),
	layer(wlPaper, "mapping.consecutive_s", "s", "lower"),
	layer(wlPaper, "netmodel.run_s", "s", "lower"),
	layer(wlPaper, "netmodel.packet_hops", "count", "lower"),
	layer(wlPaper, "report.render_s", "s", "lower"),
	layer(wlPaper, "workcache.hit_ratio", "ratio", "higher"),
	layer(wlPaper, "workcache.lookups", "count", "lower"),
	layer(wlPaper, "parallel.granted", "count", "higher"),
	layer(wlPaper, "parallel.degraded", "count", "lower"),
	layer(wlPaper, "core.top_s", "s", "lower"),
	layer(wlPaper, "core.traced_s", "s", "lower"),
	layer(wlPaper, "core.unattributed_s", "s", "lower"),

	layer(wlCongestion, "workloads.generate_s", "s", "lower"),
	layer(wlCongestion, "topology.build_s", "s", "lower"),
	layer(wlCongestion, "mapping.consecutive_s", "s", "lower"),
	layer(wlCongestion, "congest.simulate_s", "s", "lower"),
	layer(wlCongestion, "congest.messages", "count", "lower"),
	layer(wlCongestion, "congest.msgs_per_s", "1/s", "higher"),
	layer(wlCongestion, "congest.tolerance_s", "s", "lower"),
	layer(wlCongestion, "congest.probes", "count", "lower"),
	layer(wlCongestion, "report.render_s", "s", "lower"),
	layer(wlCongestion, "core.top_s", "s", "lower"),
	layer(wlCongestion, "core.traced_s", "s", "lower"),
	layer(wlCongestion, "core.unattributed_s", "s", "lower"),

	layer(wlDesign, "design.candidates_s", "s", "lower"),
	layer(wlDesign, "workloads.generate_s", "s", "lower"),
	layer(wlDesign, "comm.accumulate_s", "s", "lower"),
	layer(wlDesign, "topology.build_s", "s", "lower"),
	layer(wlDesign, "mapping.consecutive_s", "s", "lower"),
	layer(wlDesign, "mapping.greedy_s", "s", "lower"),
	layer(wlDesign, "netmodel.run_s", "s", "lower"),
	layer(wlDesign, "simnet.simulate_s", "s", "lower"),
	layer(wlDesign, "simnet.messages", "count", "lower"),
	layer(wlDesign, "report.render_s", "s", "lower"),
	layer(wlDesign, "core.top_s", "s", "lower"),
	layer(wlDesign, "core.traced_s", "s", "lower"),
	layer(wlDesign, "core.unattributed_s", "s", "lower"),

	layer(wlNetlocd, "trace.decode_s", "s", "lower"),
	layer(wlNetlocd, "trace.decode_mb_per_s", "MB/s", "higher"),
	layer(wlNetlocd, "comm.accumulate_stream_s", "s", "lower"),
	layer(wlNetlocd, "core.analyze_trace_s", "s", "lower"),
	layer(wlNetlocd, "core.analyze_on_s", "s", "lower"),
	layer(wlNetlocd, "service.cache_hit_ratio", "ratio", "higher"),
	layer(wlNetlocd, "service.computations", "count", "lower"),
	layer(wlNetlocd, "service.queue_wait_ms", "ms", "lower"),
	layer(wlNetlocd, "workcache.hit_ratio", "ratio", "higher"),
}

// specOf finds a metric's spec among all three lists.
func specOf(name string) (metricSpec, bool) {
	for _, s := range endToEnd {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range ledgerMetrics {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range perLayer {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
