package main

import (
	"fmt"
	"sort"
)

// endToEnd lists the metrics a -trace 0 run prints, with their units.
// BENCHMARK.json at the repository root declares the same names.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"wall_s":             "s",
	"cpu_s":              "s",
	"alloc_mb":           "MB",
	"peak_rss_mb":        "MB",
	"job_sealed_p50_ms":  "ms",
	"job_sealed_tail_ms": "ms",
	"query_p50_ms":       "ms",
	"query_tail_ms":      "ms",
	"queries_per_s":      "1/s",
}

// suiteIDs pins the experiment registry the suite-quick workload runs: a
// removed or added experiment fails the benchmark instead of silently
// changing what suite-quick measures.
var suiteIDs = []string{
	"A01", "A02", "A03", "A04", "A05",
	"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
	"E21", "E22",
}

// profiledLayers are the internal packages whose CPU share a traced run
// reports as <layer>.cpu_share.
var profiledLayers = []string{
	"sim", "atmnet", "atm", "switchalg", "core", "tcp", "ip", "interop",
	"scengen", "scenario", "telemetry", "trace", "store", "serve", "api",
}

// perLayer lists the metrics a -trace 1 run prints, with their units. A
// layer the workload does not exercise reads 0.
var perLayer = func() map[string]string {
	m := map[string]string{
		"sim.events_fired":             "count",
		"sim.events_scheduled":         "count",
		"sim.events_canceled":          "count",
		"sim.ns_per_event":             "ns",
		"atmnet.cells_sent":            "count",
		"atmnet.cells_dropped":         "count",
		"atmnet.switch_cells":          "count",
		"runtime.copy_cpu_share":       "fraction",
		"switchalg.fair_share_updates": "count",
		"tcp.segments_sent":            "count",
		"tcp.retransmits":              "count",
		"ip.pkts_sent":                 "count",
		"ip.drops":                     "count",
		"runner.speedup":               "ratio",
		"runner.idle_frac":             "fraction",
		"scengen.generate_ms":          "ms",
		"scengen.run_ms":               "ms",
		"scengen.check_ms":             "ms",
		"shard.barrier_waits":          "count",
		"shard.cells_crossed":          "count",
		"shard.advance_ms":             "ms",
		"trace.events":                 "count",
		"runtime.gc_cpu_frac":          "fraction",
		"runtime.gc_cycles":            "count",
		"runtime.allocs_per_run":       "count",
		"store.encode_ms":              "ms",
		"store.commit_ms":              "ms",
		"store.bytes_per_run":          "B",
		"store.campaign_bytes":         "B",
		"store.blocks_scanned":         "count",
		"store.blocks_skipped":         "count",
		"store.bytes_read":             "B",
		"store.pushdown_frac":          "fraction",
		"serve.submit_ms":              "ms",
		"serve.first_result_ms":        "ms",
		"serve.seal_ms":                "ms",
		"serve.query_window_ms":        "ms",
		"serve.query_scan_ms":          "ms",
		"serve.query_live_ms":          "ms",
		"serve.query_cross_ms":         "ms",
		"bench.trace_overhead_frac":    "fraction",
	}
	for _, layer := range profiledLayers {
		m[layer+".cpu_share"] = "fraction"
	}
	for _, id := range suiteIDs {
		m["exp."+id+".ms"] = "ms"
	}
	return m
}()

// checkNames makes the printed metric set exactly the declared one. A
// traced run fills the layers its workload does not exercise with 0.
func checkNames(m map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var bad []string
	for name, v := range m {
		unit, ok := want[name]
		if !ok || unit != v.Unit {
			bad = append(bad, fmt.Sprintf("%s [%s]", name, v.Unit))
		}
	}
	for name, unit := range want {
		if _, ok := m[name]; !ok {
			if !traced {
				bad = append(bad, "missing "+name)
				continue
			}
			m[name] = metric{0, unit}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric set does not match the declared names: %v", bad)
	}
	return nil
}
