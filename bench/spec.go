package main

// metricSpec names one metric. BENCHMARK.json at the repository root
// carries the same tables; TestSpecMatchesBenchmarkJSON keeps them equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// The end-to-end metrics are the same six on every workload; what one
// "op" is differs and is fixed per workload (see README.md):
//
//	sim-fleet        one machine advanced one tick
//	pull-sweep       one element record delivered by a sweep
//	push-ingest      one element record delivered to the sink
//	diagnose-replay  one completed DiagnoseStack/DiagnoseChain
//
// and op_ms_p50 is the median of the latency an operator feels there: a
// fleet tick, a sweep, fault-read-to-incident, a diagnosis.
//
// The time-based bounds are sized by what the box this was written on can
// resolve, not by what one would like to catch (README.md, "Baseline, and
// how steady it is"): whole runs move by 10-20 % when the host is busy, so
// they take the widest bound the contract allows. The counts repeat to
// within 1 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "heap_retained_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// The per-layer metrics, named by module. A workload reports 0 for a
// layer it does not enter.
var perLayer = []metricSpec{
	{Name: "cluster.tick_ns_per_machine", Unit: "ns", Better: "lower"},
	{Name: "cluster.allocs_per_tick", Unit: "count", Better: "lower"},
	{Name: "cluster.parallel_tick_ns_per_machine", Unit: "ns", Better: "lower"},
	{Name: "cluster.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.vswitch_count_ns", Unit: "ns", Better: "lower"},

	{Name: "procfs.netdev_render_ns", Unit: "ns", Better: "lower"},
	{Name: "procfs.netdev_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "procfs.softnet_render_ns", Unit: "ns", Better: "lower"},
	{Name: "procfs.softnet_parse_ns", Unit: "ns", Better: "lower"},

	{Name: "agent.fetch_us_per_record", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.netdev", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.softnet", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.ovs", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.qemulog", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.mbox", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_us_per_record.direct", Unit: "us", Better: "lower"},
	{Name: "agent.fetch_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "agent.records_per_fetch", Unit: "count", Better: "higher"},
	{Name: "agent.busy_us_per_query", Unit: "us", Better: "lower"},

	{Name: "wire.v2_encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wire.v2_decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wire.v2_decode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.v2_bytes_per_record_full", Unit: "B", Better: "lower"},
	{Name: "wire.v2_bytes_per_record_delta", Unit: "B", Better: "lower"},
	{Name: "wire.json_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wire.sketch_blob_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_update", Unit: "B", Better: "lower"},

	{Name: "controller.sample_us_per_sweep_local", Unit: "us", Better: "lower"},
	{Name: "controller.sweep_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "controller.retries", Unit: "count", Better: "lower"},
	{Name: "controller.breaker_skips", Unit: "count", Better: "lower"},
	{Name: "transport.residual_us_per_update", Unit: "us", Better: "lower"},

	{Name: "ingest.queue_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "ingest.lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "ingest.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "ingest.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.dropped_batches", Unit: "count", Better: "lower"},
	{Name: "ingest.seq_gaps", Unit: "count", Better: "lower"},
	{Name: "ingest.throttles", Unit: "count", Better: "lower"},

	{Name: "history.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "history.append_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "history.intervals_us_per_tenant", Unit: "us", Better: "lower"},
	{Name: "history.series_us_per_query", Unit: "us", Better: "lower"},
	{Name: "history.resident_points", Unit: "count", Better: "lower"},
	{Name: "history.bytes_per_point", Unit: "B", Better: "lower"},

	{Name: "anomaly.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "anomaly.aftersweep_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "anomaly.events", Unit: "count", Better: "higher"},
	{Name: "anomaly.incidents_opened", Unit: "count", Better: "higher"},
	{Name: "anomaly.detect_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "anomaly.detect_from_inject_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "diagnosis.stack_us_per_call", Unit: "us", Better: "lower"},
	{Name: "diagnosis.chain_us_per_call", Unit: "us", Better: "lower"},
	{Name: "diagnosis.topflows_us_per_call", Unit: "us", Better: "lower"},
	{Name: "diagnosis.diagnose_us_p99", Unit: "us", Better: "lower"},
	{Name: "diagnosis.verdicts_correct_ratio", Unit: "ratio", Better: "higher"},

	{Name: "telemetry.trace_complete_ns", Unit: "ns", Better: "lower"},
}
