package main

import (
	"encoding/json"
	"io"
	"runtime"
)

// metricDef describes one metric. End-to-end metrics carry the bound by
// which a change may worsen them; per-layer metrics say which
// end-to-end metric they should move, on which workloads, and where
// they are predicted to stay unchanged.
type metricDef struct {
	name, unit, better, layer string
	bound                     float64 // end-to-end only
	moves, on, unchangedOn    string  // per-layer only
}

const (
	all          = "paper-128, agent-loopback-32"
	loop         = "agent-loopback-32"
	anyDig       = "any change that leaves event digests unchanged"
	qualityMoves = "fp, detect_p50_s, learn_*"
)

var endToEndMetrics = []metricDef{
	{name: "member_s_per_s", unit: "member-s/s", better: "higher", layer: "end-to-end", bound: 0.25},
	{name: "cpu_ms_per_member_s", unit: "ms", better: "lower", layer: "end-to-end", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", layer: "end-to-end", bound: 0.25},
	{name: "peak_heap_mb", unit: "MB", better: "lower", layer: "end-to-end", bound: 0.2},
	{name: "detect_p50_s", unit: "s", better: "lower", layer: "end-to-end", bound: 0.15},
	{name: "learn_p50_s", unit: "s", better: "lower", layer: "end-to-end", bound: 0.2},
	{name: "learn_p90_s", unit: "s", better: "lower", layer: "end-to-end", bound: 0.25},
	{name: "msgs_per_member_s", unit: "msgs/member-s", better: "lower", layer: "end-to-end", bound: 0.2},
	{name: "bytes_per_member_s", unit: "B/member-s", better: "lower", layer: "end-to-end", bound: 0.15},
}

var perLayerMetrics = []metricDef{
	{name: "sim.sched.events", unit: "count", better: "lower", layer: "sim.sched", moves: "member_s_per_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.sched.pending_mean", unit: "count", better: "lower", layer: "sim.sched", moves: "member_s_per_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.sched.self_ns_per_event", unit: "ns", better: "lower", layer: "sim.sched", moves: "member_s_per_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.pkts_sent", unit: "count", better: "lower", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.delivered_ratio", unit: "ratio", better: "higher", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.drops_overflow", unit: "count", better: "lower", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.inbox_mean", unit: "count", better: "lower", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.inbox_wait_ms", unit: "ms", better: "lower", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "sim.net.send_ns_per_pkt", unit: "ns", better: "lower", layer: "sim.net", moves: "member_s_per_s, fp, learn_p50_s", on: "paper-128", unchangedOn: loop},
	{name: "core.handle.pkts", unit: "count", better: "lower", layer: "core", moves: "member_s_per_s, cpu_ms_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "core.handle.self_ns_per_pkt", unit: "ns", better: "lower", layer: "core", moves: "member_s_per_s, cpu_ms_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "core.timer.fires", unit: "count", better: "lower", layer: "core", moves: "member_s_per_s, cpu_ms_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "core.timer.self_ns_per_fire", unit: "ns", better: "lower", layer: "core", moves: "member_s_per_s, cpu_ms_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "core.probe.rounds", unit: "count", better: "lower", layer: "core", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.probe.direct_ack_ratio", unit: "ratio", better: "higher", layer: "core", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.probe.timeouts", unit: "count", better: "lower", layer: "core", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.suspicion.raised", unit: "count", better: "lower", layer: "suspicion", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.suspicion.refuted_ratio", unit: "ratio", better: "higher", layer: "suspicion", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.suspicion.timeout_p50_s", unit: "s", better: "lower", layer: "suspicion", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.awareness.lhm_mean", unit: "score", better: "lower", layer: "awareness", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "core.refutes", unit: "count", better: "lower", layer: "core", moves: qualityMoves, on: "paper-128", unchangedOn: anyDig},
	{name: "wire.bytes_per_pkt", unit: "B", better: "lower", layer: "wire", moves: "member_s_per_s, cpu_ms_per_member_s, bytes_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "wire.msgs_per_pkt", unit: "count", better: "higher", layer: "wire", moves: "member_s_per_s, cpu_ms_per_member_s, bytes_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "wire.decode_ns_per_pkt", unit: "ns", better: "lower", layer: "wire", moves: "member_s_per_s, cpu_ms_per_member_s, bytes_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "wire.encode_ns_per_pkt", unit: "ns", better: "lower", layer: "wire", moves: "member_s_per_s, cpu_ms_per_member_s, bytes_per_member_s", on: "paper-128, agent-loopback-32"},
	{name: "wire.replay_pkts", unit: "count", better: "higher", layer: "wire", moves: "none (sample size behind wire.*)", on: all},
	{name: "broadcast.pending_mean", unit: "count", better: "lower", layer: "broadcast", moves: "member_s_per_s, bytes_per_member_s", on: "paper-128", unchangedOn: loop + " (no anomaly, few broadcasts)"},
	{name: "coords.updates", unit: "count", better: "lower", layer: "coords", moves: "member_s_per_s, cpu_ms_per_member_s", on: all},
	{name: "coords.decisions", unit: "count", better: "lower", layer: "coords", moves: "member_s_per_s, learn_p50_s", unchangedOn: all + " (TopologyAware off: reads zero)"},
	{name: "coords.adaptive_timeout_ratio", unit: "ratio", better: "higher", layer: "coords", moves: "member_s_per_s, learn_p50_s", unchangedOn: all + " (TopologyAware off: reads zero)"},
	{name: "telemetry.records", unit: "count", better: "lower", layer: "telemetry", moves: "cpu_ms_per_member_s", on: loop, unchangedOn: "paper-128 (records no telemetry: zero)"},
	{name: "telemetry.ns_per_record", unit: "ns", better: "lower", layer: "telemetry", moves: "cpu_ms_per_member_s", on: loop, unchangedOn: "paper-128 (records no telemetry: zero)"},
	{name: "metrics.sink.calls", unit: "count", better: "lower", layer: "metrics", moves: "member_s_per_s, peak_heap_mb", on: "paper-128"},
	{name: "metrics.sink.ns_per_call", unit: "ns", better: "lower", layer: "metrics", moves: "member_s_per_s, peak_heap_mb", on: "paper-128"},
	{name: "metrics.eventlog.appends", unit: "count", better: "lower", layer: "metrics", moves: "member_s_per_s, peak_heap_mb", on: "paper-128"},
	{name: "metrics.eventlog.ns_per_append", unit: "ns", better: "lower", layer: "metrics", moves: "member_s_per_s, peak_heap_mb", on: "paper-128"},
	{name: "nettrans.send.pkts", unit: "count", better: "lower", layer: "nettrans", moves: "cpu_ms_per_member_s", on: loop, unchangedOn: "paper-128 (reads zero)"},
	{name: "nettrans.send.ns_per_pkt", unit: "ns", better: "lower", layer: "nettrans", moves: "cpu_ms_per_member_s", on: loop, unchangedOn: "paper-128 (reads zero)"},
	{name: "nettrans.tcp_sends", unit: "count", better: "lower", layer: "nettrans", moves: "cpu_ms_per_member_s", on: loop, unchangedOn: "paper-128 (reads zero)"},
	{name: "gc.cpu_share", unit: "fraction", better: "lower", layer: "runtime", moves: "cpu_ms_per_member_s, peak_heap_mb", on: "paper-128"},
	{name: "gc.alloc_bytes_per_event", unit: "B", better: "lower", layer: "runtime", moves: "cpu_ms_per_member_s, peak_heap_mb", on: "paper-128"},
	{name: "gc.cycles", unit: "count", better: "lower", layer: "runtime", moves: "cpu_ms_per_member_s, peak_heap_mb", on: "paper-128"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "bench", moves: "none (traced wall / untraced wall)", on: all},
	{name: "quality.fp", unit: "count", better: "lower", layer: "end-to-end", moves: "none (dead declarations about members that neither crashed nor left)", on: "paper-128"},
	{name: "quality.detect_samples", unit: "count", better: "higher", layer: "end-to-end", moves: "none (sample count behind detect_p50_s)", on: all},
	{name: "quality.learn_samples", unit: "count", better: "higher", layer: "end-to-end", moves: "none (sample count behind learn_*)", on: all},
	{name: "quality.learn_p99_s", unit: "s", better: "lower", layer: "end-to-end", moves: "none (learn tail where samples allow)", on: "paper-128"},
}

func init() {
	for _, l := range cpuLayers {
		perLayerMetrics = append(perLayerMetrics, metricDef{
			name: "cpu_share." + l, unit: "fraction", better: "lower", layer: l,
			moves: "attribution only (CPU-profile share of the traced run)", on: all,
		})
	}
}

func metricByName(name string) metricDef {
	for _, d := range endToEndMetrics {
		if d.name == name {
			return d
		}
	}
	for _, d := range perLayerMetrics {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: undefined metric " + name)
}

// writeDescription prints the metadata behind BENCHMARK.json: every
// metric with its unit, direction and layer, what each per-layer metric
// should move and where, each workload's reason, and this host's
// fingerprint.
func writeDescription(w io.Writer) error {
	type metricJSON struct {
		Name        string  `json:"name"`
		Unit        string  `json:"unit"`
		Better      string  `json:"better"`
		Layer       string  `json:"layer"`
		Bound       float64 `json:"bound,omitempty"`
		Moves       string  `json:"moves,omitempty"`
		On          string  `json:"on,omitempty"`
		UnchangedOn string  `json:"unchanged_on,omitempty"`
	}
	conv := func(ds []metricDef) []metricJSON {
		var out []metricJSON
		for _, d := range ds {
			out = append(out, metricJSON{d.name, d.unit, d.better, d.layer, d.bound, d.moves, d.on, d.unchangedOn})
		}
		return out
	}
	type workloadJSON struct {
		Name       string `json:"name"`
		Why        string `json:"why"`
		MinRounds  int    `json:"min_rounds"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	}
	var ws []workloadJSON
	for _, wl := range workloads {
		procs := runtime.NumCPU()
		if wl.sim != nil {
			procs = 1
		}
		ws = append(ws, workloadJSON{wl.name, wl.why, wl.minRounds, procs})
	}
	doc := map[string]any{
		"host": map[string]any{
			"nproc": runtime.NumCPU(),
			"go":    runtime.Version(),
		},
		"workloads":  ws,
		"end_to_end": conv(endToEndMetrics),
		"per_layer":  conv(perLayerMetrics),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
