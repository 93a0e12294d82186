package main

import "runtime/debug"

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract; BENCHMARK.json lists the same names and units
// (the smoke test checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd is reported by untraced runs, one value per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // process start to first timed execution (median of setupReps)
	{"exec_s", "s"},       // median wall seconds of one execution
	{"msgs_per_s", "1/s"}, // simulated messages (id entries) per host second
	{"cpu_s", "s"},        // median process CPU seconds per execution
	{"mem_mb", "MB"},      // peak RSS
}

// perLayer is reported by traced runs. Every traced run reports every
// entry; a module the workload never calls reads 0. Counts are per
// execution (median over the traced executions).
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.depth", "count"},
	{"sim.ns_per_event", "ns"},
	{"simnet.sent", "count"},
	{"simnet.delivered", "count"},
	{"simnet.dropped", "count"},
	{"simnet.entries_per_batch", "count"},
	{"simnet.ns_per_send", "ns"},
	{"simnet.ns_per_batch", "ns"},
	{"core.useful_ratio", "ratio"},
	{"core.self_s", "s"},
	{"bitset.ns_per_op", "ns"},
	{"xrand.ns_per_forward", "ns"},
	{"msgbits.ns_per_get", "ns"},
	{"stream.entries", "count"},
	{"stream.receipts", "count"},
	{"stream.useful_ratio", "ratio"},
	{"stream.evicted", "count"},
	{"stream.expired", "count"},
	{"stream.repair_misses", "count"},
	{"stream.self_s", "s"},
	{"shard.windows", "count"},
	{"shard.events_per_window", "count"},
	{"shard.window_us.p50", "us"},
	{"shard.window_us.p90", "us"},
	{"shard.cpu_per_wall", "ratio"},
	{"membership.views_built", "count"},
	{"membership.build_s", "s"},
	{"scenario.cell_s.p50", "s"},
	{"scenario.cell_s.p95", "s"},
	{"protocols.paper.cell_s", "s"},
	{"protocols.pbcast.cell_s", "s"},
	{"protocols.lpbcast.cell_s", "s"},
	{"protocols.anti-entropy.cell_s", "s"},
	{"protocols.rdg.cell_s", "s"},
	{"protocols.lrg.cell_s", "s"},
	{"runpool.utilization", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"alloc.warm_mallocs", "count"},
	{"trace.overhead", "ratio"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// buildRevision reports the git revision the binary was built from and
// whether the tree was modified, from the toolchain's VCS stamp. A build
// outside a git checkout has no stamp.
func buildRevision() (rev string, dirty bool) {
	rev = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
