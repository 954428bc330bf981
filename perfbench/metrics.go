package main

// metricDef is one catalogue entry, mirrored in BENCHMARK.json (a test
// keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the figure runners or of tclserve sees. Every
// workload reports every entry; an "operation" is one fig8a+fig8b run on
// figs-* and one /v1/simulate request on serve-open.
var endToEnd = []metricDef{
	// Time before the first timed operation (figs-cold: child start until
	// the figure runner is entered; figs-warm: the cache-filling run;
	// serve-open: server start until /healthz answers and the hot set is
	// warm).
	{"setup_s", "s", "lower"},
	// Median operation latency: host wall time of one figure run with the
	// GC on, or a request's time from its due time to its full body.
	{"latency_p50_ms", "ms", "lower"},
	// p90 of the same by nearest rank; a failed request counts as
	// infinitely slow.
	{"latency_p90_ms", "ms", "lower"},
	// Process CPU time (user+system) per operation.
	{"cpu_ms_per_op", "ms", "lower"},
	// Live heap after a forced GC at the end of the timed window.
	{"heap_mb", "MiB", "lower"},
}

// perLayer is the traced run's split, prefixed with the module that does
// the work. Times marked "per op" are the probe-timed cost of the calls the
// run's operations made, divided by the operation count.
var perLayer = []metricDef{
	// nn: one model's build, activation synthesis and lowering (mean over
	// the workload's models; serve-open builds through serve.ModelSpec).
	{"nn.build_ms", "ms", "lower"},
	{"nn.acts_ms", "ms", "lower"},
	{"nn.lower_ms", "ms", "lower"},
	// nn: Lowered.FilterRowInto for every schedule lookup, per op.
	{"nn.filter_rows_ms", "ms", "lower"},
	// sched: HashFilters and Schedule.Stats for every lookup, per op.
	{"sched.hash_ms", "ms", "lower"},
	{"sched.stats_ms", "ms", "lower"},
	// sched: Scheduler.ScheduleGroup for one distinct group, the price of
	// one miss (fill time of a run = misses × this).
	{"sched.fill_ms_per_group", "ms", "lower"},
	// sched.Shared.Stats() deltas per op, and residency at the end.
	{"sched.lookups", "count", "lower"},
	{"sched.misses", "count", "lower"},
	{"sched.hit_ratio", "ratio", "higher"},
	{"sched.entries", "count", "lower"},
	// sim.SharedPlanes.Stats() deltas per op, and residency at the end.
	{"sim.plane_misses", "count", "lower"},
	{"sim.plane_hit_ratio", "ratio", "higher"},
	{"sim.group_plane_builds", "count", "lower"},
	{"sim.plane_mb", "MiB", "lower"},
	// sim: CPU per op not covered by the probe-timed nn and sched work —
	// plane build, window evaluation and merge (plus HTTP and encoding on
	// serve-open). An estimate.
	{"sim.self_ms", "ms", "lower"},
	// Go runtime: GC cycles and bytes allocated per op; CPU over
	// (wall × engine workers) during the timed window. (GC CPU time, often
	// exactly 0 on figs-warm, is in the standard-error detail.)
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.par_eff", "ratio", "higher"},
	// The benchmark's own tracing cost: median latency of traced minus
	// untraced operations in the same run.
	{"bench.trace_overhead_ms", "ms", "lower"},
}

func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
