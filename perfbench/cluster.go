package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/experiment"
	"lifeguard/internal/metrics"
	"lifeguard/internal/sim"
	"lifeguard/internal/telemetry"
)

// simCluster builds a simulated cluster from sim and core exactly as
// experiment.NewCluster and Cluster.Start do — same seeds, same wiring,
// same join stagger — but owns the wiring so that, in a traced run,
// shims can sit at every core.Config boundary. With tr == nil it
// installs no shims and must reproduce experiment.NewCluster event for
// event (TestBuilderMatchesExperimentCluster, and the conformance check
// every run makes).
type simCluster struct {
	cc     experiment.ClusterConfig
	sched  *sim.Scheduler
	net    *sim.Network
	nodes  []*core.Node
	byName map[string]*core.Node
	events *metrics.EventLog
	sink   *metrics.MemSink
	telem  *telemetry.ClusterRecorder
	addSeq int64

	tr *traceState // nil: no shims

	live int // members not crashed
}

// eventRecorder logs one member's membership events with observer
// attribution, as the experiment package's recorder does.
type eventRecorder struct {
	log      *metrics.EventLog
	clock    interface{ Now() time.Time }
	observer string
}

func (r eventRecorder) record(t metrics.EventType, m core.Member) {
	r.log.Append(metrics.Event{
		Time:        r.clock.Now(),
		Observer:    r.observer,
		Subject:     m.Name,
		Type:        t,
		Incarnation: m.Incarnation,
	})
}

func (r eventRecorder) NotifyJoin(m core.Member)    { r.record(metrics.EventJoin, m) }
func (r eventRecorder) NotifySuspect(m core.Member) { r.record(metrics.EventSuspect, m) }
func (r eventRecorder) NotifyAlive(m core.Member)   { r.record(metrics.EventAlive, m) }
func (r eventRecorder) NotifyDead(m core.Member)    { r.record(metrics.EventDead, m) }
func (r eventRecorder) NotifyUpdate(core.Member)    {}

func newSimCluster(cc experiment.ClusterConfig, tr *traceState) (*simCluster, error) {
	if cc.N < 2 {
		return nil, fmt.Errorf("cluster needs at least 2 members, got %d", cc.N)
	}
	sched := sim.NewScheduler(time.Unix(0, 0))
	netOpts := cc.Net
	netOpts.Seed = cc.Seed
	c := &simCluster{
		cc:     cc,
		sched:  sched,
		net:    sim.NewNetwork(sched, netOpts),
		byName: make(map[string]*core.Node, cc.N),
		events: metrics.NewEventLog(),
		sink:   metrics.NewMemSink(),
		tr:     tr,
	}
	if cc.Telemetry {
		telem, err := telemetry.NewClusterRecorder(telemetry.ClusterConfig{
			Now:           c.net.Clock().Now,
			EpochInterval: math.MaxInt64,
			MaxPartitions: cc.N * cc.N,
			Stripes:       1,
		})
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		c.telem = telem
	}
	for i := 0; i < cc.N; i++ {
		if _, err := c.addNode(experiment.NodeName(i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// applyProtocol copies the Table I row and the ablation knobs onto a
// member's config.
func applyProtocol(cc experiment.ClusterConfig, cfg *core.Config) {
	p := cc.Protocol
	cfg.LHAProbe = p.LHAProbe
	cfg.LHASuspicion = p.LHASuspicion
	cfg.BuddySystem = p.BuddySystem
	cfg.SuspicionAlpha = p.Alpha
	cfg.SuspicionBeta = math.Max(p.Beta, 1)
	if cc.SuspicionK > 0 {
		cfg.SuspicionK = cc.SuspicionK
	}
	if cc.MaxLHM > 0 {
		cfg.MaxLHM = cc.MaxLHM
	}
	cfg.RandomProbeSelection = cc.RandomProbeSelection
	if cc.TopologyAware {
		cfg.AdaptiveProbeTimeout = true
		cfg.CoordinateRelaySelection = true
		cfg.LatencyAwareGossip = true
	}
}

func (c *simCluster) addNode(name string) (*core.Node, error) {
	cfg := core.DefaultConfig(name)
	applyProtocol(c.cc, cfg)
	cfg.Clock = c.net.NodeClock(name)
	c.addSeq++
	cfg.RNG = rand.New(rand.NewSource(c.cc.Seed*7919 + c.addSeq))
	cfg.Events = eventRecorder{log: c.events, clock: c.net.Clock(), observer: name}
	cfg.Metrics = c.sink
	if c.telem != nil {
		cfg.Telemetry = c.telem.For(name)
	}

	var node *core.Node
	handle := func(from string, payload []byte) { node.HandlePacket(from, payload) }
	var port *sim.Port
	var ms *memberShims
	var err error
	if c.tr == nil {
		port, err = c.net.Attach(name, handle)
		cfg.Transport = port
	} else {
		// The handler shim needs the member's span stack, which
		// instrument creates; attach through a forwarder.
		var traced func(string, []byte)
		port, err = c.net.Attach(name, func(from string, p []byte) { traced(from, p) })
		cfg.Transport = port
		if err == nil {
			traced, ms = c.tr.instrument(cfg, spanSimSend, handle)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", name, err)
	}
	net := c.net
	cfg.Blocked = func() bool { return net.Gated(name) }

	node, err = core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("new node %s: %w", name, err)
	}
	wake := node.Wake
	if ms != nil {
		wake = wrapWake(ms.nt, node.Wake)
	}
	c.net.OnWake(name, wake)
	c.nodes = append(c.nodes, node)
	c.byName[name] = node
	c.live++
	return node, nil
}

// bootstrapWindow is experiment's join-stagger span: 5 ms per member,
// capped at 10 s.
func bootstrapWindow(n int) time.Duration {
	w := time.Duration(n) * 5 * time.Millisecond
	if w > 10*time.Second {
		w = 10 * time.Second
	}
	return w
}

// start boots every member and staggers the joins through member 0 as
// Cluster.Start does. The caller then runs the quiesce period.
func (c *simCluster) start() error {
	started := c.sched.Now()
	for _, n := range c.nodes {
		if err := n.Start(); err != nil {
			return fmt.Errorf("start %s: %w", n.Name(), err)
		}
	}
	seed := c.nodes[0].Addr()
	window := bootstrapWindow(len(c.nodes))
	for i, n := range c.nodes[1:] {
		node := n
		offset := window * time.Duration(i) / time.Duration(len(c.nodes)-1)
		if offset <= 0 {
			if err := node.Join(seed); err != nil {
				return fmt.Errorf("join %s: %w", node.Name(), err)
			}
			continue
		}
		c.sched.ScheduleAt(started.Add(offset), func() { _ = node.Join(seed) })
	}
	return nil
}

func (c *simCluster) shutdown() {
	for _, n := range c.nodes {
		n.Shutdown()
	}
}

// eventDigest hashes a membership event stream: time, observer,
// subject, type and incarnation of every event, in log order.
func eventDigest(events []metrics.Event) uint64 {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d\n", ev.Time.UnixNano(), ev.Observer, ev.Subject, ev.Type, ev.Incarnation)
	}
	return h.Sum64()
}

// statsDigest hashes every field of a sim.Stats.
func statsDigest(s sim.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return h.Sum64()
}

// checkConformance builds the same small cluster through
// experiment.NewCluster + Start and through this package's builder with
// shims off, and reports an error unless both produce the same
// membership events and transport statistics.
func checkConformance(cc experiment.ClusterConfig) error {
	ref, err := experiment.NewCluster(cc)
	if err != nil {
		return err
	}
	if err := ref.Start(experiment.Quiesce); err != nil {
		return err
	}
	defer ref.Shutdown()
	want := eventDigest(ref.Events.Events())
	wantStats := statsDigest(ref.Net.TotalStats())

	c, err := newSimCluster(cc, nil)
	if err != nil {
		return err
	}
	defer c.shutdown()
	if err := c.start(); err != nil {
		return err
	}
	c.sched.RunFor(experiment.Quiesce)
	got := eventDigest(c.events.Events())
	if got != want || statsDigest(c.net.TotalStats()) != wantStats {
		return fmt.Errorf("conformance: builder diverges from experiment.NewCluster (events %x vs %x, %d vs %d events)",
			got, want, c.events.Len(), ref.Events.Len())
	}
	return nil
}
