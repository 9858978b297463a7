package main

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees; every workload
// reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"welfare", "welfare", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"resident_heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, named after the module they
// measure. Every workload reports all of them; a layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"cluster.proxy_self_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.job_run_ms", "ms", "lower"},
	{"service.delivery_ms", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.misses", "count/req", "lower"},
	{"cache.evictions", "count/req", "lower"},
	{"store.disk_hits", "count/req", "higher"},
	{"batch.builds", "count/req", "lower"},
	{"batch.coalesced", "count/req", "higher"},
	{"batch.extends", "count/req", "higher"},
	{"batch.rr_sets_appended", "count/req", "lower"},
	{"core.build_sketch_ms", "ms", "lower"},
	{"core.rr_sets", "count", "lower"},
	{"core.extend_sketch_ms", "ms", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"rrset.grow_ms", "ms", "lower"},
	{"rrset.ns_per_set", "ns", "lower"},
	{"rrset.members_per_set", "count", "lower"},
	{"rrset.alloc_bytes_per_set", "B", "lower"},
	{"rrset.parallel_efficiency", "ratio", "higher"},
	{"rrset.select_ms", "ms", "lower"},
	{"rrset.restore_ms", "ms", "lower"},
	{"store.encode_ms", "ms", "lower"},
	{"store.decode_ms", "ms", "lower"},
	{"store.sketch_mb", "MiB", "lower"},
	{"store.save_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"uic.estimate_ms", "ms", "lower"},
	{"uic.runs_per_s", "1/s", "higher"},
	{"graph.generate_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// unitOf returns a defined metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("welbench: undefined metric " + name)
}

// newMetric builds a metric with its defined unit.
func newMetric(name string, v float64) metric { return metric{Value: v, Unit: unitOf(name)} }
