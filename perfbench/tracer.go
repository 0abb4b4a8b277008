package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanSlice     spanKind = iota // one Scheduler.RunFor slice (sim.sched)
	spanHandle                    // Node.HandlePacket (core, decode included)
	spanTimer                     // a timeutil.Clock AfterFunc callback (core)
	spanWake                      // Node.Wake after an anomaly gate opens (core)
	spanSimSend                   // sim.Port send or fan-out (sim.net)
	spanNetSend                   // nettrans.Transport send (nettrans)
	spanSink                      // metrics.Sink.IncrCounter (metrics)
	spanEventLog                  // EventDelegate → EventLog.Append (metrics)
	spanTelemetry                 // telemetry.Recorder call forwarded to a real recorder
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.sched.slice", "core.handle", "core.timer", "core.wake", "sim.net.send",
	"nettrans.send", "metrics.sink", "metrics.eventlog", "telemetry.record",
}

// kindAgg accumulates one span kind: how many, their total duration and
// the part of it covered by child spans.
type kindAgg struct {
	n, totalNs, childNs int64
}

func (a kindAgg) selfNs() int64 { return a.totalNs - a.childNs }

func (a *kindAgg) add(b kindAgg) {
	a.n += b.n
	a.totalNs += b.totalNs
	a.childNs += b.childNs
}

// spanRecord is one span as written to the span dump.
type spanRecord struct {
	id, parent, trace uint64
	kind              spanKind
	node              int32
	start, end        int64
}

// maxKeptSpans bounds the raw spans kept in memory for the dump; the
// aggregates count every span regardless.
const maxKeptSpans = 200_000

// tracer owns the per-member span stacks and the raw span buffer.
type tracer struct {
	epoch time.Time

	ids atomic.Uint64

	mu    sync.Mutex
	nodes []*nodeTrace
	kept  []spanRecord
	full  atomic.Bool
	slice kindAgg

	// inSlice is set while a scheduler slice runs; sliceChildNs sums the
	// member spans that ran directly under a slice, so the scheduler's own
	// time is the slice time minus it.
	inSlice      atomic.Bool
	sliceChildNs atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// node returns a fresh per-member span stack.
func (t *tracer) node(name string) *nodeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := &nodeTrace{t: t, id: int32(len(t.nodes)), name: name}
	t.nodes = append(t.nodes, nt)
	return nt
}

// timeSlice runs fn as a scheduler slice span, the root of every span
// the slice's callbacks open.
func (t *tracer) timeSlice(fn func()) {
	t.inSlice.Store(true)
	start := t.now()
	fn()
	end := t.now()
	t.inSlice.Store(false)
	t.mu.Lock()
	t.slice.n++
	t.slice.totalNs += end - start
	t.mu.Unlock()
	t.keep(spanRecord{id: t.ids.Add(1), kind: spanSlice, node: -1, start: start, end: end})
}

func (t *tracer) keep(r spanRecord) {
	if t.full.Load() {
		return
	}
	t.mu.Lock()
	t.kept = append(t.kept, r)
	if len(t.kept) >= maxKeptSpans {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// totals merges every member's aggregates, with the slice spans.
func (t *tracer) totals() [numSpanKinds]kindAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numSpanKinds]kindAgg
	out[spanSlice] = t.slice
	out[spanSlice].childNs = t.sliceChildNs.Load()
	for _, nt := range t.nodes {
		nt.mu.Lock()
		for k := range nt.agg {
			out[k].add(nt.agg[k])
		}
		nt.mu.Unlock()
	}
	return out
}

// dump writes the kept spans as tab-separated lines: id, parent, trace,
// span name, member, start and end in ns since the tracer started.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tspan\tmember\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, r := range t.kept {
		member := "-"
		if r.node >= 0 {
			member = t.nodes[r.node].name
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", r.id, r.parent, r.trace, spanNames[r.kind], member, r.start, r.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frame is one open span on a member's stack.
type frame struct {
	id, trace uint64
	kind      spanKind
	start     int64
	childNs   int64
}

// nodeTrace is one member's span stack. Under the simulator every span
// of a member nests strictly. Under the real transport a member's
// callbacks run on several goroutines, so frames can close out of order;
// a closing span then charges its time to the frame below it, which may
// belong to a concurrent callback of the same member. Totals and self
// times summed over a layer stay exact either way.
type nodeTrace struct {
	t    *tracer
	id   int32
	name string

	mu   sync.Mutex
	open []frame
	agg  [numSpanKinds]kindAgg
}

// enter opens a span and returns its id for exit.
func (nt *nodeTrace) enter(k spanKind) uint64 {
	id := nt.t.ids.Add(1)
	nt.mu.Lock()
	trace := id
	if n := len(nt.open); n > 0 {
		trace = nt.open[n-1].trace
	}
	nt.open = append(nt.open, frame{id: id, trace: trace, kind: k, start: nt.t.now()})
	nt.mu.Unlock()
	return id
}

// exit closes the span whose enter returned id.
func (nt *nodeTrace) exit(id uint64) {
	end := nt.t.now()
	nt.mu.Lock()
	i := len(nt.open) - 1
	for i >= 0 && nt.open[i].id != id {
		i--
	}
	if i < 0 {
		nt.mu.Unlock()
		panic("perfbench: span exit without enter")
	}
	f := nt.open[i]
	nt.open = append(nt.open[:i], nt.open[i+1:]...)
	d := end - f.start
	a := &nt.agg[f.kind]
	a.n++
	a.totalNs += d
	a.childNs += f.childNs
	var parent uint64
	if i > 0 {
		nt.open[i-1].childNs += d
		parent = nt.open[i-1].id
	} else if nt.t.inSlice.Load() {
		nt.t.sliceChildNs.Add(d)
	}
	nt.mu.Unlock()
	nt.t.keep(spanRecord{id: id, parent: parent, trace: f.trace, kind: f.kind, node: nt.id, start: f.start, end: end})
}
