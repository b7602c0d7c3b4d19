package main

// This file is the benchmark's contract: the workloads and the metrics it
// reports, with unit, direction and regression bound. BENCHMARK.json at the
// repository root carries the same list (a test keeps the two equal), and
// `bench -list` prints it.

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadSpecs = []workloadSpec{
	{"ire-expander-256", "IRE on a 256-node expander: the protocol layer (core) does most of the work, about 5 allocations per message; the exact spectral profile is the set-up"},
	{"floodmax-expander-100k", "FloodMax on a 100000-node expander: 12 rounds, so sim.New and routing over a working set far larger than cache do the work; set-up is graph build and the estimate-regime profile"},
	{"revocable-complete-4", "Revocable LE on complete n=4: 794304 rounds of 12 messages, so the simulator's fixed cost per round (halts, accounting, Converged polling) is what shows"},
	{"wire-tcp-walknotify-expander-64", "WalkNotify on a 64-node expander over TCP, checked against the simulator replay of the same seed: the only workload through frame codec, link and barrier"},
	{"sweep-gate", "CI's quick gate sweep without revocable cells, cold cache each repeat: 75 cells, five protocols, six families, presumed-n and fault ladders, then artifact, diff and report; one election is one trial"},
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"elections_per_s", "1/s", higher, 0.25},
	{"election_ms_p50", "ms", lower, 0.25},
	{"ns_per_message", "ns", lower, 0.25},
	{"us_per_round", "us", lower, 0.25},
	{"allocs_per_message", "1", lower, 0.05},
	{"bytes_per_message", "B", lower, 0.05},
	{"peak_rss_mb", "MB", lower, 0.25},
}

var perLayerSpecs = []metricSpec{
	{Name: "graph.build_ms", Unit: "ms", Better: lower},
	{Name: "graph.validate_ms", Unit: "ms", Better: lower},
	{Name: "spectral.profile_ms", Unit: "ms", Better: lower},
	{Name: "spectral.profile_mb", Unit: "MB", Better: lower},
	{Name: "core.build_us", Unit: "us", Better: lower},
	{Name: "core.step_calls", Unit: "count", Better: lower},
	{Name: "core.step_ns_per_message", Unit: "ns", Better: lower},
	{Name: "core.step_share", Unit: "1", Better: lower},
	{Name: "core.collect_us", Unit: "us", Better: lower},
	{Name: "core.converged_share", Unit: "1", Better: lower},
	{Name: "sim.new_ms", Unit: "ms", Better: lower},
	{Name: "sim.new_mb", Unit: "MB", Better: lower},
	{Name: "sim.new_allocs", Unit: "count", Better: lower},
	{Name: "sim.round_self_ns_p50", Unit: "ns", Better: lower},
	{Name: "sim.self_ns_per_message", Unit: "ns", Better: lower},
	{Name: "sim.self_share", Unit: "1", Better: lower},
	{Name: "sim.run_allocs_per_round", Unit: "1", Better: lower},
	{Name: "sim.workerpool_vs_sequential", Unit: "1", Better: lower},
	{Name: "sim.actors_vs_sequential", Unit: "1", Better: lower},
	{Name: "congest.messages", Unit: "count", Better: lower},
	{Name: "congest.bits", Unit: "count", Better: lower},
	{Name: "congest.rounds", Unit: "count", Better: lower},
	{Name: "congest.charged_rounds", Unit: "count", Better: lower},
	{Name: "congest.charged_per_round", Unit: "1", Better: lower},
	{Name: "congest.max_link_slots", Unit: "count", Better: lower},
	{Name: "adversary.faulted_vs_clean", Unit: "1", Better: lower},
	{Name: "adversary.dropped", Unit: "count", Better: lower},
	{Name: "transport.connect_ms", Unit: "ms", Better: lower},
	{Name: "transport.close_ms", Unit: "ms", Better: lower},
	{Name: "transport.round_us_p50", Unit: "us", Better: lower},
	{Name: "transport.round_us_p99", Unit: "us", Better: lower},
	{Name: "transport.allocs_per_round", Unit: "1", Better: lower},
	{Name: "transport.frame_encode_ns", Unit: "ns", Better: lower},
	{Name: "transport.frame_decode_ns", Unit: "ns", Better: lower},
	{Name: "transport.wire_vs_sim", Unit: "1", Better: lower},
	{Name: "transport.chan_round_us_p50", Unit: "us", Better: lower},
	{Name: "transport.pipe_round_us_p50", Unit: "us", Better: lower},
	{Name: "harness.cell_ms_p50", Unit: "ms", Better: lower},
	{Name: "harness.cell_ms_max", Unit: "ms", Better: lower},
	{Name: "harness.cache_hits", Unit: "count", Better: higher},
	{Name: "harness.cache_misses", Unit: "count", Better: lower},
	{Name: "harness.artifact_encode_ms", Unit: "ms", Better: lower},
	{Name: "harness.artifact_decode_ms", Unit: "ms", Better: lower},
	{Name: "trajectory.diff_ms", Unit: "ms", Better: lower},
	{Name: "report.markdown_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead", Unit: "1", Better: lower},
	{Name: "bench.traced_elections", Unit: "count", Better: higher},
}
