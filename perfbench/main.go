// Command perfbench is the repository benchmark: it runs one named
// workload against the lifeguard packages for a fixed wall-time budget
// and prints its metrics, the end-to-end ones from an untraced run or,
// with -trace 1, the per-layer ones from a run whose timing shims sit at
// every core.Config boundary.
//
//	bash perfbench/run.sh --workload paper-128 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when a
// correctness check fails (after printing that object with correct set
// to false) and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lifeguard/internal/experiment"
)

// workloadDef is one named workload. minRounds rounds always run, and
// the quality metrics come from exactly those, so they are the same for
// a seed whatever the machine's speed; more rounds run while the wall
// budget lasts and feed only the timing metrics.
type workloadDef struct {
	name, why string
	sim       *simWorkload // nil: the loopback workload
	minRounds int
}

func (w *workloadDef) round(seed int64, round int, ts *traceState) (*roundResult, error) {
	if w.sim == nil {
		return runAgentRound(seed, round, ts)
	}
	return runSimRound(w.sim, seed, ts)
}

var workloads = []*workloadDef{
	{
		name:      "paper-128",
		why:       "the paper's 128-member Lifeguard setting under interval slow-processing anomalies and hard crashes; packet path, suspicion and LHM carry the work",
		sim:       paper128,
		minRounds: 6,
	},
	{
		name:      "agent-loopback-32",
		why:       "32 members on real loopback UDP/TCP in one process, no simulator, each with the bundled telemetry recorder; nettrans, real timers and core locking under concurrency",
		minRounds: 3,
	},
}

// maxRounds bounds the rounds of one run whatever the budget.
const maxRounds = 200

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "wall-time budget of the measured rounds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the span dump")
	describe := fs.Bool("describe", false, "print the metric and workload metadata as JSON and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *describe {
		if err := writeDescription(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	w := lookup(*workload)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if w.sim != nil {
		// The simulator runs on one goroutine. A second P would only host
		// GC workers, and on a small VM its stop-the-world handshakes with
		// a descheduled vCPU add wall time no CPU counter sees.
		runtime.GOMAXPROCS(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's output object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
	order []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	d := metricByName(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
	r.order = append(r.order, name)
}

func (r *result) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(r) // plain floats and strings: cannot fail
	fmt.Fprintln(w, string(b))
}

// run measures one workload: the conformance check, then rounds until
// the budget is spent (at least minRounds untraced, or one traced pair).
func run(w *workloadDef, seed int64, budget time.Duration, trace bool, outDir string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	res.notes = append(res.notes, fmt.Sprintf("workload %s seed %d trace %t host nproc=%d GOMAXPROCS=%d %s",
		w.name, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()))
	fail := func(reason string) {
		if res.Correct {
			res.notes = append(res.notes, "correctness check failed: "+reason)
		}
		res.Correct = false
	}
	if err := checkConformance(experiment.ClusterConfig{N: 24, Seed: seed, Protocol: experiment.ConfigLifeguard}); err != nil {
		fail(err.Error())
	}

	var plain, traced []*roundResult
	var lastTrace *traceState
	start := time.Now()
	minRounds := w.minRounds
	if trace {
		minRounds = 1
	}
	for r := 0; r < maxRounds; r++ {
		if r >= minRounds && time.Since(start) >= budget {
			break
		}
		rs := seed*1_000_003 + int64(r)
		// Collect the previous round's cluster now, so that its garbage
		// is not swept on the next round's clock.
		runtime.GC()
		u, err := w.round(rs, r, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, u)
		if !trace {
			continue
		}
		ts := newTraceState()
		runtime.GC()
		t, err := w.round(rs, r, ts)
		if err != nil {
			return nil, err
		}
		if ts.prof.err != nil {
			return nil, ts.prof.err
		}
		if t.digest != u.digest {
			fail(fmt.Sprintf("traced and untraced round %d differ (digest %x vs %x)", r, t.digest, u.digest))
		}
		if t.out.failed > 0 {
			fail("traced round: " + t.out.failReason)
		}
		if t.trace == nil {
			continue // the round failed before its timed phase
		}
		t.untracedWallNs = u.wallNs
		traced = append(traced, t)
		lastTrace = ts
	}

	quality := plain
	if len(quality) > w.minRounds {
		quality = quality[:w.minRounds]
	}
	var out outcome
	for _, r := range plain {
		if r.out.failed > 0 {
			fail(r.out.failReason)
		}
	}
	for _, r := range quality {
		out.merge(r.out)
	}
	for _, r := range plain[len(quality):] {
		out.attempted += r.out.attempted
		out.failed += r.out.failed
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	if !res.Correct {
		res.Failed = res.Attempted
	}
	res.notes = append(res.notes, fmt.Sprintf("rounds %d (quality from the first %d): fp %d, crashes detected %d, learn samples %d",
		len(plain), len(quality), out.fp, len(out.detectS), len(out.learnS)))

	if !trace {
		var rates []string
		for _, r := range plain {
			rates = append(rates, fmt.Sprintf("%.0f", ratio(r.memberS, float64(r.wallNs)/1e9)))
		}
		res.notes = append(res.notes, "member_s_per_s by round: "+strings.Join(rates, " "))
		endToEnd(res, plain, quality, out)
		return res, nil
	}
	wr, err := replayWire(collectWire(traced), 400*time.Millisecond)
	if err != nil {
		fail(err.Error())
	}
	perLayer(res, w, plain, traced, out, wr)
	if lastTrace != nil {
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))
			if err := lastTrace.tr.dump(path); err == nil {
				res.notes = append(res.notes, "spans of the last traced round: "+path)
			}
		}
	}
	return res, nil
}

// collectWire pools the traced rounds' payload samples.
func collectWire(traced []*roundResult) [][]byte {
	var out [][]byte
	for _, t := range traced {
		out = append(out, t.trace.wire...)
	}
	return out
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd sets the end-to-end metrics of an untraced run.
func endToEnd(res *result, plain, quality []*roundResult, out outcome) {
	// The host's speed drifts from round to round; medians over rounds
	// keep one slow or fast stretch from carrying a whole run.
	var rates, cpus, setups, heaps []float64
	for _, r := range plain {
		heaps = append(heaps, r.peakHeapMB)
		rates = append(rates, ratio(r.memberS, float64(r.wallNs)/1e9))
		cpus = append(cpus, ratio(float64(r.cpuNs)/1e6, r.memberS))
		setups = append(setups, r.setupS)
	}
	var qMemberS, msgs, bytes float64
	for _, r := range quality {
		qMemberS += r.memberS
		msgs += float64(r.msgs)
		bytes += float64(r.bytes)
	}
	res.set("member_s_per_s", median(rates))
	res.set("cpu_ms_per_member_s", median(cpus))
	res.set("setup_s", median(setups))
	res.set("peak_heap_mb", median(heaps))
	res.set("detect_p50_s", median(out.detectS))
	res.set("learn_p50_s", quantile(out.learnS, 0.5))
	res.set("learn_p90_s", quantile(out.learnS, 0.9))
	res.set("msgs_per_member_s", ratio(msgs, qMemberS))
	res.set("bytes_per_member_s", ratio(bytes, qMemberS))
}

// perLayer sets the per-layer metrics of a traced run.
func perLayer(res *result, w *workloadDef, plain, traced []*roundResult, out outcome, wr wireReplay) {
	var spans [numSpanKinds]kindAgg
	var sends sendStats
	probes := &probeStats{}
	layers := &layerSamples{}
	cpu := map[string]int64{}
	sink := map[string]int64{}
	var events, netSent, netDelivered, netOverflow int64
	var tracedWall, plainWall float64
	for _, t := range traced {
		for k := range spans {
			spans[k].add(t.trace.spans[k])
		}
		s := t.trace.sends
		sends.pkts += s.pkts
		sends.bytes += s.bytes
		sends.reliable += s.reliable
		probes.merge(t.trace.probes)
		if t.layers != nil {
			layers.add(t.layers)
		}
		for k, v := range t.trace.cpu {
			cpu[k] += v
		}
		for k, v := range t.sink {
			sink[k] += v
		}
		if w.sim != nil {
			events += t.events
			netSent += t.net.MsgsSent
			netDelivered += t.net.MsgsDelivered
			netOverflow += t.net.DropsOverflow
		}
		tracedWall += float64(t.wallNs)
		plainWall += float64(t.untracedWallNs)
	}
	var gc gcCounters
	var plainEvents int64
	for _, r := range plain {
		gc.add(r.gc)
		plainEvents += r.events
	}
	res.set("sim.sched.events", float64(events))
	res.set("sim.sched.pending_mean", ratio(layers.schedLen, float64(layers.n)))
	res.set("sim.sched.self_ns_per_event", ratio(float64(spans[spanSlice].selfNs()), float64(events)))
	res.set("sim.net.pkts_sent", float64(netSent))
	res.set("sim.net.delivered_ratio", ratio(float64(netDelivered), float64(netSent)))
	res.set("sim.net.drops_overflow", float64(netOverflow))
	res.set("sim.net.inbox_mean", ratio(layers.perPort, float64(layers.n)))
	// Little's law on virtual time: mean packets queued over all inboxes
	// divided by the delivery rate.
	res.set("sim.net.inbox_wait_ms", 1000*ratio(ratio(layers.inbox, float64(layers.n)), ratio(float64(netDelivered), layers.virtualS)))
	res.set("sim.net.send_ns_per_pkt", ratio(float64(spans[spanSimSend].totalNs), float64(sends.pkts)))

	res.set("core.handle.pkts", float64(spans[spanHandle].n))
	res.set("core.handle.self_ns_per_pkt", ratio(float64(spans[spanHandle].selfNs()), float64(spans[spanHandle].n)))
	res.set("core.timer.fires", float64(spans[spanTimer].n))
	res.set("core.timer.self_ns_per_fire", ratio(float64(spans[spanTimer].selfNs()), float64(spans[spanTimer].n)))
	rounds := float64(probes.direct + probes.indirect + probes.timeouts)
	res.set("core.probe.rounds", rounds)
	res.set("core.probe.direct_ack_ratio", ratio(float64(probes.direct), rounds))
	res.set("core.probe.timeouts", float64(probes.timeouts))
	raised := float64(sink["suspicions_raised"])
	res.set("core.suspicion.raised", raised)
	res.set("core.suspicion.refuted_ratio", ratio(float64(sink["suspicions_refuted"]), raised))
	res.set("core.suspicion.timeout_p50_s", median(probes.suspDeadS))
	res.set("core.awareness.lhm_mean", ratio(layers.lhm, float64(layers.n)))
	res.set("core.refutes", float64(sink["refutes"]))

	res.set("wire.bytes_per_pkt", ratio(float64(sends.bytes), float64(sends.pkts)))
	res.set("wire.msgs_per_pkt", wr.msgsPerPkt)
	res.set("wire.decode_ns_per_pkt", wr.decodeNs)
	res.set("wire.encode_ns_per_pkt", wr.encodeNs)
	res.set("wire.replay_pkts", float64(wr.packets))

	res.set("broadcast.pending_mean", ratio(layers.pending, float64(layers.n)))

	decisions := sink["adaptive_timeouts"] + sink["adaptive_timeout_fallbacks"] + sink["relay_near_picks"] +
		sink["relay_random_picks"] + sink["gossip_near_picks"] + sink["gossip_escape_picks"]
	res.set("coords.updates", float64(sink["coord_updates"]))
	res.set("coords.decisions", float64(decisions))
	res.set("coords.adaptive_timeout_ratio", ratio(float64(sink["adaptive_timeouts"]), float64(sink["adaptive_timeouts"]+sink["adaptive_timeout_fallbacks"])))
	res.set("telemetry.records", float64(spans[spanTelemetry].n))
	res.set("telemetry.ns_per_record", ratio(float64(spans[spanTelemetry].totalNs), float64(spans[spanTelemetry].n)))

	res.set("metrics.sink.calls", float64(spans[spanSink].n))
	res.set("metrics.sink.ns_per_call", ratio(float64(spans[spanSink].totalNs), float64(spans[spanSink].n)))
	res.set("metrics.eventlog.appends", float64(spans[spanEventLog].n))
	res.set("metrics.eventlog.ns_per_append", ratio(float64(spans[spanEventLog].totalNs), float64(spans[spanEventLog].n)))

	res.set("nettrans.send.pkts", float64(spans[spanNetSend].n))
	res.set("nettrans.send.ns_per_pkt", ratio(float64(spans[spanNetSend].totalNs), float64(spans[spanNetSend].n)))
	nettransTCP := float64(0)
	if w.sim == nil {
		nettransTCP = float64(sends.reliable)
	}
	res.set("nettrans.tcp_sends", nettransTCP)

	res.set("gc.cpu_share", ratio(gc.gcCPU, gc.totalCPU))
	res.set("gc.alloc_bytes_per_event", ratio(gc.allocBytes, float64(plainEvents)))
	res.set("gc.cycles", gc.cycles)

	var cpuTotal int64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, l := range cpuLayers {
		res.set("cpu_share."+l, ratio(float64(cpu[l]), float64(cpuTotal)))
	}
	res.set("trace.overhead_ratio", ratio(tracedWall, plainWall))

	res.set("quality.fp", float64(out.fp))
	res.set("quality.detect_samples", float64(len(out.detectS)))
	res.set("quality.learn_samples", float64(len(out.learnS)))
	res.set("quality.learn_p99_s", quantile(out.learnS, 0.99))
}
