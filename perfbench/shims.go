package main

import (
	"sync"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
	"lifeguard/internal/timeutil"
)

// The shims below sit at the public boundaries the core is handed
// through core.Config. Each one opens a span, calls straight through to
// the wrapped value and closes the span; none of them draws randomness,
// schedules work or changes an argument, so a traced run executes the
// same events as an untraced one (the benchmark checks the digests).

// sendStats counts what a transport shim saw.
type sendStats struct {
	pkts, bytes, reliable int64
}

// transportShim times SendPacket into one member's transport.
type transportShim struct {
	inner core.Transport
	nt    *nodeTrace
	kind  spanKind
	capt  *wireCapture

	mu sync.Mutex
	st sendStats
}

func (s *transportShim) LocalAddr() string { return s.inner.LocalAddr() }

func (s *transportShim) SendPacket(addr string, payload []byte, reliable bool) error {
	s.count(1, payload, reliable)
	id := s.nt.enter(s.kind)
	err := s.inner.SendPacket(addr, payload, reliable)
	s.nt.exit(id)
	return err
}

func (s *transportShim) count(n int, payload []byte, reliable bool) {
	s.mu.Lock()
	s.st.pkts += int64(n)
	s.st.bytes += int64(n) * int64(len(payload))
	if reliable {
		s.st.reliable += int64(n)
	}
	s.mu.Unlock()
	s.capt.offer(payload)
}

func (s *transportShim) stats() sendStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// fanoutShim is a transportShim whose inner transport implements
// core.FanoutTransport. The core type-asserts for that interface, so the
// shim must implement it exactly when the wrapped transport does.
type fanoutShim struct {
	*transportShim
	fan core.FanoutTransport
}

func (s *fanoutShim) SendPacketFanout(addrs []string, payload []byte, reliable bool) error {
	s.count(len(addrs), payload, reliable)
	id := s.nt.enter(s.kind)
	err := s.fan.SendPacketFanout(addrs, payload, reliable)
	s.nt.exit(id)
	return err
}

// wrapTransport returns the shim for inner, and the shim's counters.
func wrapTransport(inner core.Transport, nt *nodeTrace, kind spanKind, capt *wireCapture) (core.Transport, *transportShim) {
	s := &transportShim{inner: inner, nt: nt, kind: kind, capt: capt}
	if fan, ok := inner.(core.FanoutTransport); ok {
		return &fanoutShim{transportShim: s, fan: fan}, s
	}
	return s, s
}

// wrapHandler times one member's packet handler (Node.HandlePacket).
func wrapHandler(nt *nodeTrace, h func(from string, payload []byte)) func(string, []byte) {
	return func(from string, payload []byte) {
		id := nt.enter(spanHandle)
		h(from, payload)
		nt.exit(id)
	}
}

// wrapWake times Node.Wake, the deferred work a gated member runs when
// its anomaly gate opens.
func wrapWake(nt *nodeTrace, wake func()) func() {
	return func() {
		id := nt.enter(spanWake)
		wake()
		nt.exit(id)
	}
}

// clockShim times every AfterFunc callback: the probe, gossip,
// push-pull, reconnect and suspicion timers.
type clockShim struct {
	inner timeutil.Clock
	nt    *nodeTrace
}

func (c clockShim) Now() time.Time { return c.inner.Now() }

func (c clockShim) AfterFunc(d time.Duration, f func()) timeutil.Timer {
	nt := c.nt
	return c.inner.AfterFunc(d, func() {
		id := nt.enter(spanTimer)
		f()
		nt.exit(id)
	})
}

// sinkShim times metrics.Sink calls into the shared MemSink.
type sinkShim struct {
	inner metrics.Sink
	nt    *nodeTrace
}

func (s sinkShim) IncrCounter(name string, delta int64) {
	id := s.nt.enter(spanSink)
	s.inner.IncrCounter(name, delta)
	s.nt.exit(id)
}

// eventShim times the EventDelegate calls that append to the EventLog.
type eventShim struct {
	inner core.EventDelegate
	nt    *nodeTrace
}

func (e eventShim) timed(f func(core.Member), m core.Member) {
	id := e.nt.enter(spanEventLog)
	f(m)
	e.nt.exit(id)
}

func (e eventShim) NotifyJoin(m core.Member)    { e.timed(e.inner.NotifyJoin, m) }
func (e eventShim) NotifySuspect(m core.Member) { e.timed(e.inner.NotifySuspect, m) }
func (e eventShim) NotifyAlive(m core.Member)   { e.timed(e.inner.NotifyAlive, m) }
func (e eventShim) NotifyDead(m core.Member)    { e.timed(e.inner.NotifyDead, m) }

// NotifyUpdate is not logged by the event recorder, so it is not timed.
func (e eventShim) NotifyUpdate(m core.Member) { e.inner.NotifyUpdate(m) }

// probeStats tallies what the core reported through telemetry.Recorder.
type probeStats struct {
	direct, indirect, timeouts int64
	suspDeadS                  []float64 // lifetimes of suspicions that ended in death
}

func (p *probeStats) merge(o *probeStats) {
	p.direct += o.direct
	p.indirect += o.indirect
	p.timeouts += o.timeouts
	p.suspDeadS = append(p.suspDeadS, o.suspDeadS...)
}

// recorderShim tallies probe outcomes and suspicion lifetimes from the
// telemetry.Recorder calls and forwards every call, timed, to the real
// recorder when the workload has one. Installing it on a member without
// a recorder only adds the core's write-only recorder calls; the
// determinism contract on telemetry.Recorder makes that invisible to the
// simulation, which the traced-versus-untraced digest check confirms.
type recorderShim struct {
	inner telemetry.Recorder // nil when the workload records no telemetry
	nt    *nodeTrace

	mu sync.Mutex
	st probeStats
}

func (r *recorderShim) forward(f func()) {
	if r.inner == nil {
		return
	}
	id := r.nt.enter(spanTelemetry)
	f()
	r.nt.exit(id)
}

func (r *recorderShim) RecordRTT(peer string, rtt time.Duration) {
	r.forward(func() { r.inner.RecordRTT(peer, rtt) })
}

func (r *recorderShim) RecordProbe(peer string, o telemetry.ProbeOutcome) {
	r.mu.Lock()
	switch o {
	case telemetry.OutcomeDirectAck:
		r.st.direct++
	case telemetry.OutcomeIndirectAck:
		r.st.indirect++
	case telemetry.OutcomeTimeout:
		r.st.timeouts++
	}
	r.mu.Unlock()
	r.forward(func() { r.inner.RecordProbe(peer, o) })
}

func (r *recorderShim) RecordLHM(score int) {
	r.forward(func() { r.inner.RecordLHM(score) })
}

func (r *recorderShim) RecordSuspicion(peer string, d time.Duration, died bool) {
	if died {
		r.mu.Lock()
		r.st.suspDeadS = append(r.st.suspDeadS, d.Seconds())
		r.mu.Unlock()
	}
	r.forward(func() { r.inner.RecordSuspicion(peer, d, died) })
}

func (r *recorderShim) stats() *probeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.suspDeadS = append([]float64(nil), r.st.suspDeadS...)
	return &st
}

// memberShims is everything the traced builders install on one member.
type memberShims struct {
	nt    *nodeTrace
	send  *transportShim
	recor *recorderShim
}

// traceState is a traced run's view of its members' shims.
type traceState struct {
	tr      *tracer
	capt    *wireCapture
	prof    *cpuProfile
	mu      sync.Mutex
	members []*memberShims
}

func newTraceState() *traceState {
	return &traceState{tr: newTracer(), capt: newWireCapture(), prof: &cpuProfile{}}
}

// instrument wraps every core.Config boundary of one member and returns
// the packet handler to register with its transport.
func (ts *traceState) instrument(cfg *core.Config, sendKind spanKind, handle func(string, []byte)) (func(string, []byte), *memberShims) {
	nt := ts.tr.node(cfg.Name)
	var send *transportShim
	cfg.Transport, send = wrapTransport(cfg.Transport, nt, sendKind, ts.capt)
	cfg.Clock = clockShim{inner: cfg.Clock, nt: nt}
	cfg.Metrics = sinkShim{inner: cfg.Metrics, nt: nt}
	cfg.Events = eventShim{inner: cfg.Events, nt: nt}
	rec := &recorderShim{inner: cfg.Telemetry, nt: nt}
	cfg.Telemetry = rec
	ms := &memberShims{nt: nt, send: send, recor: rec}
	ts.mu.Lock()
	ts.members = append(ts.members, ms)
	ts.mu.Unlock()
	return wrapHandler(nt, handle), ms
}

// sends sums the transport shims' counters.
func (ts *traceState) sends() sendStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var out sendStats
	for _, m := range ts.members {
		s := m.send.stats()
		out.pkts += s.pkts
		out.bytes += s.bytes
		out.reliable += s.reliable
	}
	return out
}

// probes merges the recorder shims' tallies.
func (ts *traceState) probes() *probeStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := &probeStats{}
	for _, m := range ts.members {
		out.merge(m.recor.stats())
	}
	return out
}

// traceSnapshot is what a traced round's shims measured over its timed
// phase.
type traceSnapshot struct {
	spans  [numSpanKinds]kindAgg
	sends  sendStats
	probes *probeStats
	wire   [][]byte
	cpu    map[string]int64 // CPU-profile ns by layer
}

// reset zeroes every counter at the start of the timed phase, so the
// snapshot covers the timed phase alone, and starts the CPU profile.
func (ts *traceState) reset() {
	t := ts.tr
	t.mu.Lock()
	t.slice = kindAgg{}
	t.sliceChildNs.Store(0)
	t.kept = t.kept[:0]
	t.full.Store(false)
	for _, nt := range t.nodes {
		nt.mu.Lock()
		nt.agg = [numSpanKinds]kindAgg{}
		nt.mu.Unlock()
	}
	t.mu.Unlock()
	ts.mu.Lock()
	for _, m := range ts.members {
		m.send.mu.Lock()
		m.send.st = sendStats{}
		m.send.mu.Unlock()
		m.recor.mu.Lock()
		m.recor.st = probeStats{}
		m.recor.mu.Unlock()
	}
	ts.mu.Unlock()
	ts.capt.mu.Lock()
	ts.capt.seen, ts.capt.samples = 0, nil
	ts.capt.mu.Unlock()
	ts.prof.start()
}

// snapshot stops the CPU profile and collects the timed phase's
// measurements.
func (ts *traceState) snapshot() *traceSnapshot {
	cpu := ts.prof.stop()
	return &traceSnapshot{
		spans:  ts.tr.totals(),
		sends:  ts.sends(),
		probes: ts.probes(),
		wire:   ts.capt.take(),
		cpu:    cpu,
	}
}
