package main

// perLayer lists the metrics a traced run prints. A metric a workload does
// not exercise (the WAL on a closed loop, the wire in-process) reads 0; the
// README maps each to the end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The end-to-end p99, from the untraced half. It is not graded: on
		// a host shared with other machines it does not repeat within
		// any bound a later change could be held to.
		{"latency_p99_ms", "ms"},
		// durable-open only: the open loop's admission, its latency limit,
		// which mean nothing on a closed loop, and its latency at the
		// reference rate.
		{"rejected_ratio", "ratio"},
		{"max_rate_within_slo", "1/s"},
		{"ref.latency_p50_ms", "ms"},
		{"ref.latency_p90_ms", "ms"},
		{"ref.latency_p99_ms", "ms"},
		{"gen.late_p99_us", "us"},
		{"facade.start_us.p50", "us"},
		{"facade.start_us.p99", "us"},
		{"facade.entry_us.p50", "us"},
		{"facade.rejected_per_offered", "ratio"},
		{"core.exit_us.p50", "us"},
		{"core.exit_us.p99", "us"},
		{"core.abort_us.p50", "us"},
		{"core.abort_us.p99", "us"},
	}
	for _, k := range []string{"commit", "signal", "abort", "storm"} {
		defs = append(defs, metricDef{"kind." + k + ".p50_us", "us"}, metricDef{"kind." + k + ".p99_us", "us"})
	}
	for _, k := range []string{"rounds", "raises", "handler_runs", "undos"} {
		defs = append(defs, metricDef{"action." + k + "_per_action", "count"})
	}
	defs = append(defs,
		metricDef{"resolve.decide_us.p50", "us"},
		metricDef{"resolve.decide_us.p99", "us"},
		metricDef{"resolve.raise_us", "us"},
		metricDef{"resolve.deliver_us", "us"},
		metricDef{"resolve.delivers_per_round", "count"},
		metricDef{"except.resolve_us", "us"},
		metricDef{"except.calls_per_round", "count"},
	)
	for _, k := range []string{"total", "Enter", "ToBeSignalled", "Exception", "Suspended", "Commit", "App"} {
		defs = append(defs, metricDef{"msgs_per_action." + k, "count"})
	}
	defs = append(defs, metricDef{"resolution_msgs_per_round", "count"})
	for _, k := range []string{"join", "raise", "vote", "outcome"} {
		defs = append(defs, metricDef{"wal.append_us." + k + ".p50", "us"}, metricDef{"wal.append_us." + k + ".p99", "us"})
	}
	defs = append(defs,
		metricDef{"wal.records_per_action", "count"},
		metricDef{"wal.append_us.first_quarter", "us"},
		metricDef{"wal.append_us.last_quarter", "us"},
		metricDef{"wal.file_bytes_end", "bytes"},
		metricDef{"wire.msgs_per_round", "count"},
		metricDef{"wire.batch_frames_per_round", "count"},
		metricDef{"wire.msgs_per_frame", "count"},
		metricDef{"wire.credit_stalls", "count"},
		metricDef{"wire.reinjected", "count"},
		metricDef{"node.cpu_ms_per_round.mean", "ms"},
		metricDef{"node.cpu_ms_per_round.max", "ms"},
		metricDef{"control.start_ms.p50", "ms"},
		metricDef{"control.polls_per_round", "count"},
		metricDef{"control.poll_interval_ms", "ms"},
		metricDef{"cluster.boot_s", "s"},
		metricDef{"cluster.discovery_s", "s"},
		metricDef{"cluster.second_half_rate_ratio", "ratio"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.mutex_wait_us_per_op", "us"},
		metricDef{"runtime.sched_latency_p99_us", "us"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_us_per_op." + l, "us"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self_share." + l, "ratio"})
	}
	defs = append(defs,
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.spans_per_op", "count"},
	)
	return defs
}()
