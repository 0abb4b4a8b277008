package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"lifeguard"
	"lifeguard/internal/metrics"
	"lifeguard/internal/timeutil"
)

const (
	agentMembers = 32
	agentCrashes = 4

	// agentPortBase and agentPortBlocks place each round's members on
	// explicit loopback ports below Linux's ephemeral range (32768+), as
	// lifeguard-agent's default -bind does, so no outgoing push-pull
	// connection can hold a port a member is about to bind.
	agentPortBase   = 20000
	agentPortBlocks = 300

	agentSteady   = 2 * time.Second  // steady phase before the crashes
	agentLearn    = 9 * time.Second  // window after the crashes
	agentDeadline = 30 * time.Second // bound on set-up and on learning
	agentPoll     = 10 * time.Millisecond
	agentTick     = 50 * time.Millisecond // sampling period of the timed phase
)

// agentMember is one member on real loopback UDP/TCP.
type agentMember struct {
	node *lifeguard.Node
	tr   *lifeguard.UDPTransport
	down bool
}

// agentPorts picks the round's port block from the seed, the round and
// whether the round is the traced copy, so the untraced and traced
// copies of a round never reuse each other's sockets.
func agentPorts(seed int64, round int, traced bool) int {
	k := int64(round*2) + seed*7
	if traced {
		k++
	}
	k %= agentPortBlocks
	if k < 0 {
		k += agentPortBlocks
	}
	return agentPortBase + int(k)*agentMembers
}

// runAgentRound boots 32 members in this process through
// lifeguard.NewUDPTransport and lifeguard.NewNode, converges them, runs a
// steady phase, crashes four by closing their transports and runs a
// fixed window in which every survivor must declare them dead.
func runAgentRound(seed int64, round int, ts *traceState) (*roundResult, error) {
	r := &roundResult{}
	m := newMeter()
	defer func() { r.peakHeapMB = m.peakMB() }()
	events := metrics.NewEventLog()
	sink := metrics.NewMemSink()
	base := agentPorts(seed, round, ts != nil)
	members := make([]*agentMember, 0, agentMembers)
	var joinNames []string
	defer func() {
		var wg sync.WaitGroup
		for _, am := range members {
			if !am.down {
				am.node.Shutdown()
				wg.Add(1)
				go func(t *lifeguard.UDPTransport) {
					defer wg.Done()
					t.Close()
				}(am.tr)
			}
		}
		wg.Wait()
	}()

	t0 := time.Now()
	for i := 0; i < agentMembers; i++ {
		name := fmt.Sprintf("member-%02d", i)
		joinNames = append(joinNames, name)
		tr, err := lifeguard.NewUDPTransport(fmt.Sprintf("127.0.0.1:%d", base+i))
		if err != nil {
			// A bind failure fails the member's join; it is never retried.
			r.out.attempted = agentMembers + agentCrashes
			r.out.fail(fmt.Sprintf("bind %s: %v", name, err))
			r.out.failed = r.out.attempted
			return r, nil
		}
		cfg := lifeguard.DefaultConfig(name)
		cfg.Addr = tr.LocalAddr()
		cfg.Transport = tr
		cfg.ProbeInterval = 500 * time.Millisecond
		cfg.ProbeTimeout = 250 * time.Millisecond
		cfg.RNG = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		cfg.Events = eventRecorder{log: events, clock: timeutil.RealClock{}, observer: name}
		cfg.Metrics = sink
		// Each member records telemetry into the bundled per-node
		// recorder, as lifeguard-agent does when its ops server is on.
		rec, err := lifeguard.NewNodeTelemetry(lifeguard.NodeTelemetryConfig{})
		if err != nil {
			tr.Close()
			return nil, err
		}
		cfg.Telemetry = rec
		var node *lifeguard.Node
		handle := func(from string, p []byte) { node.HandlePacket(from, p) }
		cfg.Clock = timeutil.RealClock{}
		if ts != nil {
			handle, _ = ts.instrument(cfg, spanNetSend, handle)
		}
		node, err = lifeguard.NewNode(cfg)
		if err != nil {
			tr.Close()
			return nil, err
		}
		tr.Run(handle)
		if err := node.Start(); err != nil {
			tr.Close()
			return nil, err
		}
		members = append(members, &agentMember{node: node, tr: tr})
		if i > 0 {
			if err := node.Join(members[0].node.Addr()); err != nil {
				return nil, err
			}
		}
	}
	views := func() []viewer {
		var out []viewer
		for _, am := range members {
			if !am.down {
				out = append(out, am.node)
			}
		}
		return out
	}
	// Set-up ends when every member sees every member alive and the join
	// gossip has drained from every broadcast queue.
	settled := func() bool {
		if checkJoins(views(), joinNames).failed > 0 {
			return false
		}
		for _, am := range members {
			if am.node.PendingBroadcasts() > 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(agentDeadline); !settled() && time.Now().Before(deadline); {
		time.Sleep(agentPoll)
		m.sampleHeap()
	}
	r.setupS = time.Since(t0).Seconds()
	r.out = checkJoins(views(), joinNames)

	if ts != nil {
		ts.reset()
		r.layers = &layerSamples{}
	}
	sink0 := sink.Snapshot()
	gc0 := readGC()
	cpu0 := cpuTime()
	w0 := time.Now()
	live := len(members)
	last := w0
	memberNs := 0.0
	tick := func() {
		now := time.Now()
		memberNs += float64(live) * float64(now.Sub(last))
		last = now
		m.sampleHeap()
		if r.layers != nil {
			var nodes []*lifeguard.Node
			for _, am := range members {
				if !am.down {
					nodes = append(nodes, am.node)
				}
			}
			r.layers.sampleNodes(nodes)
		}
	}
	sleepUntil := func(t time.Time) {
		for time.Now().Before(t) {
			time.Sleep(min(agentTick, time.Until(t)))
			tick()
		}
	}
	sleepUntil(w0.Add(agentSteady))

	crashAt := map[string]time.Time{}
	rng := rand.New(rand.NewSource(seed + 1))
	tick()
	crashed := time.Now()
	for _, i := range rng.Perm(agentMembers - 1)[:agentCrashes] {
		am := members[i+1]
		am.tr.Close() // the process dies: nothing more leaves it
		am.node.Shutdown()
		am.down = true
		live--
		crashAt[am.node.Name()] = time.Now()
	}
	learned := func() bool {
		for _, v := range views() {
			for name := range crashAt {
				if mem, ok := v.Member(name); ok && mem.State != lifeguard.StateDead {
					return false
				}
			}
		}
		return true
	}
	// A fixed window measures the same stretch of protocol time in every
	// round; only a round whose survivors have not all learned by then
	// waits on, up to the deadline.
	sleepUntil(crashed.Add(agentLearn))
	for deadline := time.Now().Add(agentDeadline); !learned() && time.Now().Before(deadline); {
		sleepUntil(time.Now().Add(agentTick))
	}
	tick()
	r.wallNs = time.Since(w0).Nanoseconds()
	r.cpuNs = cpuTime() - cpu0
	r.gc = readGC().sub(gc0)
	if ts != nil {
		r.trace = ts.snapshot()
	}
	r.memberS = memberNs / 1e9
	r.sink = diffCounters(sink.Snapshot(), sink0)
	r.msgs, r.bytes = r.sink["msgs_sent"], r.sink["bytes_sent"]
	r.events = r.msgs

	survivors := views()
	r.out.merge(score(events.Events(), w0, crashAt, survivors))
	r.digest = viewDigest(survivors, joinNames)
	return r, nil
}

// viewDigest hashes the survivors' final views: for every observer and
// member, whether the observer sees the member alive. Real-time runs
// differ in timing, not in this outcome.
func viewDigest(survivors []viewer, names []string) uint64 {
	h := fnv.New64a()
	for _, v := range survivors {
		for _, name := range names {
			mem, ok := v.Member(name)
			fmt.Fprintf(h, "%s|%s|%t\n", v.Name(), name, ok && mem.State == lifeguard.StateAlive)
		}
	}
	return h.Sum64()
}
