package main

// metricDef declares one metric: BENCHMARK.json lists exactly these, and
// TestBenchmarkJSONMatchesCatalog keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 20

// endToEnd are the numbers a user of the system sees. Every workload reports
// every one; what an operation is depends on the workload (README.md):
// a cell-slot on cell_*, a control loop on ric_loop, an answered KPM
// indication on kpm_firehose.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are single-layer numbers from the traced run; the prefix is the
// package the number belongs to. A layer a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	{Name: "core.op_p99_us", Unit: "us", Better: "lower"},

	{Name: "wat.compile_us", Unit: "us", Better: "lower"},
	{Name: "wasm.decode_us", Unit: "us", Better: "lower"},
	{Name: "wasm.validate_us", Unit: "us", Better: "lower"},
	{Name: "wasm.compile_us", Unit: "us", Better: "lower"},
	{Name: "wasm.instantiate_us", Unit: "us", Better: "lower"},
	{Name: "wabi.cache_hits", Unit: "count", Better: "higher"},
	{Name: "wabi.cache_misses", Unit: "count", Better: "lower"},

	{Name: "wasm.fuel_per_schedule", Unit: "count", Better: "lower"},
	{Name: "wasm.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "wasm.tier_closure_call_share", Unit: "ratio", Better: "higher"},

	{Name: "wabi.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "wabi.empty_call_us", Unit: "us", Better: "lower"},
	{Name: "wabi.pool_get_put_us", Unit: "us", Better: "lower"},
	{Name: "wabi.pool_waits", Unit: "count", Better: "lower"},
	{Name: "wabi.pool_created", Unit: "count", Better: "lower"},
	{Name: "wabi.pool_discards", Unit: "count", Better: "lower"},

	{Name: "sched.schedule_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.schedule_us_p99", Unit: "us", Better: "lower"},
	{Name: "sched.schedule_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.abi_encode_us", Unit: "us", Better: "lower"},
	{Name: "sched.abi_decode_us", Unit: "us", Better: "lower"},
	{Name: "sched.sandbox_tax", Unit: "ratio", Better: "lower"},
	{Name: "sched.interslice_us", Unit: "us", Better: "lower"},
	{Name: "sched.faults", Unit: "count", Better: "lower"},
	{Name: "sched.zc_dirty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "slicing.fallback_slots", Unit: "count", Better: "lower"},

	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.deadline_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.slot_max_us", Unit: "us", Better: "lower"},
	{Name: "core.watchdog_overruns", Unit: "count", Better: "lower"},
	{Name: "core.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "ran.ue_step_ns", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "core.apply_us", Unit: "us", Better: "lower"},

	{Name: "e2.encode_us", Unit: "us", Better: "lower"},
	{Name: "e2.decode_us", Unit: "us", Better: "lower"},
	{Name: "e2.write_us", Unit: "us", Better: "lower"},
	{Name: "e2.write_calls_per_frame", Unit: "ratio", Better: "lower"},
	{Name: "e2.bytes_per_indication", Unit: "B", Better: "lower"},
	{Name: "e2.frames_per_indication", Unit: "ratio", Better: "lower"},
	{Name: "e2.wire_us", Unit: "us", Better: "lower"},

	{Name: "ric.dispatch_us_p50", Unit: "us", Better: "lower"},
	{Name: "ric.dispatch_insitu_us", Unit: "us", Better: "lower"},
	{Name: "ric.controls_per_indication", Unit: "ratio", Better: "lower"},
	{Name: "ric.xapp_invocations", Unit: "ratio", Better: "lower"},
	{Name: "ric.xapp_faults", Unit: "count", Better: "lower"},
	{Name: "ric.batch_fill", Unit: "ratio", Better: "higher"},
	{Name: "ric.queue_dispatch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ric.inflight_p50", Unit: "count", Better: "lower"},
	{Name: "ric.shed_total", Unit: "count", Better: "lower"},
	{Name: "ric.refused_total", Unit: "count", Better: "lower"},
	{Name: "ric.brownout_transitions", Unit: "count", Better: "lower"},

	{Name: "ric.hop.indication.encode_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.transport_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.ric.decode_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.xapp.invoke_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.control.encode_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.gnb.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "ric.hop.slot.effect_p50_us", Unit: "us", Better: "lower"},

	{Name: "obs.registry_on_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.tracer_on_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.closure_error", Unit: "ratio", Better: "lower"},
}

// hopMetric is the per-layer name of one program span's p50.
func hopMetric(span string) string { return "ric.hop." + span + "_p50_us" }

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
