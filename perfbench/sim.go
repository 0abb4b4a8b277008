package main

import (
	"math/rand"
	"runtime"
	"time"

	"lifeguard/internal/experiment"
	"lifeguard/internal/sim"
)

// sliceLen is the virtual time one Scheduler.RunFor slice covers. The
// benchmark samples the heap, and in a traced run the queue depths,
// between slices.
const sliceLen = 250 * time.Millisecond

// simEnv drives one simulated cluster in slices and samples it.
type simEnv struct {
	c  *simCluster
	m  *meter
	ls *layerSamples // nil in an untraced round

	timed    bool
	memberNs float64 // Σ live members × virtual ns over the timed phase

	crashAt map[string]time.Time // members the timed phase crashed
}

func (e *simEnv) now() time.Time { return e.c.sched.Now() }

// runFor advances virtual time by d, one slice at a time.
func (e *simEnv) runFor(d time.Duration) {
	for d > 0 {
		step := min(sliceLen, d)
		if e.c.tr != nil {
			e.c.tr.tr.timeSlice(func() { e.c.sched.RunFor(step) })
		} else {
			e.c.sched.RunFor(step)
		}
		d -= step
		e.m.sampleHeap()
		if !e.timed {
			continue
		}
		e.memberNs += float64(e.c.live) * float64(step)
		if e.ls != nil {
			e.ls.sampleSim(e.c, step)
		}
	}
}

// crash silences a member for good through the sim fault API.
func (e *simEnv) crash(name string) {
	e.c.net.Crash(name)
	e.c.live--
	e.crashAt[name] = e.now()
}

// gate gates or releases the named members in lock step, the paper's
// synchronized anomaly model (Cluster.SetAnomalous).
func (e *simEnv) gate(names []string, anomalous bool) {
	for _, name := range names {
		e.c.net.SetGated(name, anomalous)
	}
}

// jitter draws a crash offset uniform in one probe period, so crashes
// fall at arbitrary phases of the members' probe schedules as real ones
// do, instead of on the same tick every round.
func jitter(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63n(int64(time.Second)))
}

// simWorkload is one simulated workload: how to configure the cluster,
// how long it quiesces after the joins, and what its timed phase does.
type simWorkload struct {
	cluster func(seed int64) experiment.ClusterConfig
	quiesce time.Duration
	timed   func(e *simEnv, seed int64)
}

// runSimRound builds, converges and runs one round of a simulated
// workload.
func runSimRound(w *simWorkload, seed int64, ts *traceState) (*roundResult, error) {
	r := &roundResult{}
	m := newMeter()
	defer func() { r.peakHeapMB = m.peakMB() }()
	t0 := time.Now()
	c, err := newSimCluster(w.cluster(seed), ts)
	if err != nil {
		return nil, err
	}
	defer c.shutdown()
	env := &simEnv{c: c, m: m, crashAt: map[string]time.Time{}}
	if err := c.start(); err != nil {
		return nil, err
	}
	env.runFor(w.quiesce)
	r.setupS = time.Since(t0).Seconds()
	// Start the timed phase from a collected heap: the set-up's garbage
	// and the pacer's state then depend on neither the set-up's speed
	// nor where its last cycle fell. Virtual time stands still here.
	runtime.GC()

	if ts != nil {
		ts.reset()
		env.ls = &layerSamples{}
	}
	sink0 := c.sink.Snapshot()
	net0 := c.net.TotalStats()
	exec0 := c.sched.Executed()
	start := env.now()
	env.timed = true
	gc0 := readGC()
	cpu0 := cpuTime()
	w0 := time.Now()

	w.timed(env, seed)

	r.wallNs = time.Since(w0).Nanoseconds()
	r.cpuNs = cpuTime() - cpu0
	r.gc = readGC().sub(gc0)
	if ts != nil {
		r.trace = ts.snapshot()
		r.layers = env.ls
	}
	env.timed = false
	r.memberS = env.memberNs / 1e9
	r.events = int64(c.sched.Executed() - exec0)
	r.sink = diffCounters(c.sink.Snapshot(), sink0)
	r.msgs, r.bytes = r.sink["msgs_sent"], r.sink["bytes_sent"]

	// Every member that did not crash is one join operation, checked
	// at the end of the round by 16 sampled members, member 0 first.
	var survivors, observers []viewer
	var names []string
	for _, n := range c.nodes {
		if _, crashed := env.crashAt[n.Name()]; crashed {
			continue
		}
		survivors = append(survivors, n)
		names = append(names, n.Name())
		if len(observers) < 16 {
			observers = append(observers, n)
		}
	}
	r.out = checkJoins(observers, names)
	evs := c.events.Events()
	r.out.merge(score(evs, start, env.crashAt, survivors))
	stats := c.net.TotalStats()
	r.digest = eventDigest(evs) ^ statsDigest(stats)*31
	r.net = sim.Stats{
		MsgsSent:      stats.MsgsSent - net0.MsgsSent,
		MsgsDelivered: stats.MsgsDelivered - net0.MsgsDelivered,
		DropsOverflow: stats.DropsOverflow - net0.DropsOverflow,
	}
	return r, nil
}

// pick returns count distinct member names from [lo, hi) in the
// seed's order, skipping the names in skip.
func pick(rng *rand.Rand, lo, hi, count int, skip map[string]bool) []string {
	var out []string
	for _, i := range rng.Perm(hi - lo) {
		if len(out) == count {
			break
		}
		name := experiment.NodeName(lo + i)
		if !skip[name] {
			out = append(out, name)
			skip[name] = true
		}
	}
	return out
}

// paper128 is the paper's §V setting: 128 members on the Lifeguard row
// of Table I with the default uniform latency. Eight victims cycle
// through the Interval experiment's slow-processing anomaly (gated for
// D, released for I), and four other members crash hard, one per cycle
// in mid-anomaly; the settle period lets every survivor learn.
var paper128 = &simWorkload{
	cluster: func(seed int64) experiment.ClusterConfig {
		return experiment.ClusterConfig{N: 128, Seed: seed, Protocol: experiment.ConfigLifeguard}
	},
	quiesce: experiment.Quiesce,
	timed: func(e *simEnv, seed int64) {
		const (
			victims  = 8
			crashes  = 4
			anomalyD = 12 * time.Second
			anomalyI = time.Second
			cycles   = 6
			settle   = 40 * time.Second
		)
		rng := rand.New(rand.NewSource(seed + 1))
		skip := map[string]bool{}
		bad := pick(rng, 1, 128, victims, skip)
		doomed := pick(rng, 1, 128, crashes, skip)
		for i := 0; i < cycles; i++ {
			e.gate(bad, true)
			if i < crashes {
				at := anomalyD/2 + jitter(rng)
				e.runFor(at)
				e.crash(doomed[i])
				e.runFor(anomalyD - at)
			} else {
				e.runFor(anomalyD)
			}
			e.gate(bad, false)
			e.runFor(anomalyI)
		}
		e.runFor(settle)
	},
}
