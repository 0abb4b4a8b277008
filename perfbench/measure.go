package main

import (
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/sim"
)

// roundResult is everything one round measured.
type roundResult struct {
	setupS     float64
	peakHeapMB float64 // peak live heap over the round
	wallNs     int64   // timed phase, wall
	cpuNs      int64   // timed phase, process user+sys CPU
	memberS    float64 // timed phase, member-seconds (virtual or real)
	events     int64   // scheduler events (simulator) or packets sent (loopback)
	msgs       int64
	bytes      int64
	gc         gcCounters
	out        outcome
	digest     uint64
	net        sim.Stats // timed phase: sent, delivered, overflow drops
	sink       map[string]int64

	layers         *layerSamples // traced rounds
	trace          *traceSnapshot
	untracedWallNs int64 // traced rounds: wall time of the untraced copy
}

// meter tracks the peak live heap across a round.
type meter struct {
	sample   []rtmetrics.Sample
	peakLive uint64
}

func newMeter() *meter {
	return &meter{sample: []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (m *meter) peakMB() float64 { return float64(m.peakLive) / (1 << 20) }

func (m *meter) sampleHeap() {
	rtmetrics.Read(m.sample)
	if s := m.sample[0]; s.Value.Kind() == rtmetrics.KindUint64 && s.Value.Uint64() > m.peakLive {
		m.peakLive = s.Value.Uint64()
	}
}

// gcCounters are cumulative runtime counters read from runtime/metrics.
type gcCounters struct {
	gcCPU, totalCPU float64
	allocBytes      float64
	cycles          float64
}

var gcNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcCounters {
	s := make([]rtmetrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcCounters{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), cycles: v(3)}
}

func (g gcCounters) sub(o gcCounters) gcCounters {
	return gcCounters{g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU, g.allocBytes - o.allocBytes, g.cycles - o.cycles}
}

func (g *gcCounters) add(o gcCounters) {
	g.gcCPU += o.gcCPU
	g.totalCPU += o.totalCPU
	g.allocBytes += o.allocBytes
	g.cycles += o.cycles
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// layerSamples accumulates the queue depths a traced simulator round
// samples between slices.
type layerSamples struct {
	n        int
	virtualS float64
	schedLen float64 // Σ Scheduler.Len
	inbox    float64 // Σ over samples of Σ Network.QueueLen over members
	perPort  float64 // Σ over samples of the mean QueueLen per member
	pending  float64 // Σ over samples of the mean Node.PendingBroadcasts
	lhm      float64 // Σ over samples of the mean Node.HealthScore
}

func (l *layerSamples) sampleSim(c *simCluster, step time.Duration) {
	l.virtualS += step.Seconds()
	l.schedLen += float64(c.sched.Len())
	q := 0
	for _, n := range c.nodes {
		q += c.net.QueueLen(n.Name())
	}
	l.inbox += float64(q)
	l.perPort += float64(q) / float64(len(c.nodes))
	l.sampleNodes(c.nodes)
}

// sampleNodes samples the members' broadcast queues and health scores.
func (l *layerSamples) sampleNodes(nodes []*core.Node) {
	l.n++
	p, h := 0, 0
	for _, n := range nodes {
		p += n.PendingBroadcasts()
		h += n.HealthScore()
	}
	l.pending += float64(p) / float64(len(nodes))
	l.lhm += float64(h) / float64(len(nodes))
}

func (l *layerSamples) add(o *layerSamples) {
	l.n += o.n
	l.virtualS += o.virtualS
	l.schedLen += o.schedLen
	l.inbox += o.inbox
	l.perPort += o.perPort
	l.pending += o.pending
	l.lhm += o.lhm
}

// diffCounters returns after − before for every counter in after.
func diffCounters(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
