package main

import (
	"repro/internal/runner"
)

// simCounters maps a traced unit's merged telemetry counters onto the
// per-layer metric names.
func simCounters(b *bench, m map[string]metric, c map[string]uint64) {
	count := func(name string, keys ...string) {
		var n uint64
		for _, k := range keys {
			n += c[k]
		}
		m[name] = metric{float64(n), "count"}
	}
	count("sim.events_fired", "engine.events_fired")
	count("sim.events_scheduled", "engine.events_scheduled")
	count("sim.events_canceled", "engine.events_canceled")
	count("atmnet.cells_sent", "link.cells_sent")
	count("atmnet.cells_dropped", "link.cells_dropped", "link.cells_lost")
	count("atmnet.switch_cells", "switch.cells_data", "switch.cells_frm", "switch.cells_brm")
	count("switchalg.fair_share_updates", "alg.fair_share_updates")
	count("tcp.segments_sent", "tcp.segments_sent")
	count("tcp.retransmits", "tcp.retransmits")
	count("ip.pkts_sent", "ip.pkts_sent")
	count("ip.drops", "ip.drops_disc", "ip.drops_loss", "ip.drops_tail")
	count("shard.barrier_waits", "shard.barrier_waits")
	count("shard.cells_crossed", "shard.cells_crossed")
	m["shard.advance_ms"] = metric{float64(c["shard.advance_ns.sum"]) / 1e6, "ms"}
	if fired := c["engine.events_fired"]; fired > 0 {
		m["sim.ns_per_event"] = metric{b.prof.layerNS("sim") / float64(fired), "ns"}
	}
}

// fleetMetrics reports how well a traced unit's fleet used its workers.
func fleetMetrics(m map[string]metric, s runner.Stats) {
	m["runner.speedup"] = metric{s.Speedup(), "ratio"}
	if s.Wall > 0 && s.Workers > 0 {
		m["runner.idle_frac"] = metric{1 - float64(s.WorkWall)/(float64(s.Workers)*float64(s.Wall)), "fraction"}
	}
}
