// Package sim provides the discrete-event substrate the paper's
// experiments run on: a virtual-time scheduler, a Clock implementation
// for the protocol core, and a simulated network with per-member anomaly
// gates that reproduce the paper's "block before sending / after
// receiving" slow-processing model (§V-D), including the parts of a real
// memberlist process that keep running while blocked (timers) and the
// parts that do not (inbound message processing, sends).
package sim

import (
	"time"
)

// Event is a scheduled callback. It can be cancelled before it runs.
type Event struct {
	// at is the event's virtual time in nanoseconds since the
	// scheduler's epoch; seq is its schedule order, the same-instant
	// tie-break. Together they are the total execution order.
	at  int64
	seq uint64

	// fn is the callback. Pooled events use the closure-free fnArg/arg
	// pair instead, so the hot packet path allocates nothing per event.
	fn    func()
	fnArg func(any)
	arg   any

	// q is the queue holding the event while it is pending, and nil
	// once it has run or been stopped; index is its slot in q's heap.
	// Together they let Stop remove the event at once.
	q     *heapQueue
	index int32

	// pooled marks events owned by the scheduler's free list: scheduled
	// through scheduleArg, never handed out, recycled after they run.
	pooled bool
}

// Stop cancels the event, removing it from the queue at once and
// dropping its callback. It reports whether the event was still pending.
func (e *Event) Stop() bool {
	if e == nil || e.q == nil {
		return false
	}
	e.q.remove(int(e.index))
	e.fn = nil
	return true
}

// Scheduler is a single-threaded discrete-event loop. All protocol logic
// in a simulation runs inside its callbacks; nothing in this package is
// safe for concurrent use, by design (determinism).
type Scheduler struct {
	epoch time.Time
	now   int64 // ns since epoch
	q     heapQueue
	seq   uint64

	// executed counts events run, for diagnostics and runaway guards.
	executed uint64

	// free is the pool of recycled pooled events (see scheduleArg).
	free []*Event
}

// NewScheduler returns a scheduler whose virtual clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{epoch: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.epoch.Add(time.Duration(s.now)) }

// Len returns the number of pending events. Stopped events are not
// counted: Stop removes them from the queue.
func (s *Scheduler) Len() int { return len(s.q.h) }

// Executed returns the number of events run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Schedule runs fn d from now. Negative d is treated as zero (the event
// runs on the next step, after already-scheduled events for this
// instant).
func (s *Scheduler) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	s.seq++
	e := &Event{at: s.now + int64(d), seq: s.seq, fn: fn}
	s.q.push(e)
	return e
}

// ScheduleAt runs fn at the given virtual time, which must not be before
// Now (it is clamped if it is).
func (s *Scheduler) ScheduleAt(at time.Time, fn func()) *Event {
	rel := int64(at.Sub(s.epoch))
	if rel < s.now {
		rel = s.now
	}
	s.seq++
	e := &Event{at: rel, seq: s.seq, fn: fn}
	s.q.push(e)
	return e
}

// scheduleArg runs fn(arg) d from now on a pooled event: no Event and no
// closure are allocated in steady state. Pooled events cannot be
// cancelled — no handle is returned — which is exactly what the network's
// per-packet delivery and service events need.
func (s *Scheduler) scheduleArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	s.seq++
	e.at, e.seq, e.fnArg, e.arg = s.now+int64(d), s.seq, fn, arg
	s.q.push(e)
}

// runNext pops the earliest pending event, advances virtual time to it
// and runs it. Pooled events are recycled before the callback runs, so
// a callback that schedules new work can reuse the event it came from.
// Other events drop their callback, so a handle kept after the event
// has run does not keep the closure alive.
func (s *Scheduler) runNext() {
	e := s.q.remove(0)
	s.now = e.at
	s.executed++
	if e.pooled {
		fn, arg := e.fnArg, e.arg
		e.fnArg, e.arg = nil, nil
		s.free = append(s.free, e)
		fn(arg)
		return
	}
	fn := e.fn
	e.fn = nil
	fn()
}

// Step runs the next pending event, advancing virtual time to it. It
// reports whether an event was run (false when the queue is empty).
func (s *Scheduler) Step() bool {
	if len(s.q.h) == 0 {
		return false
	}
	s.runNext()
	return true
}

// RunUntil runs every event scheduled at or before t, then sets the
// virtual clock to t.
func (s *Scheduler) RunUntil(t time.Time) {
	rel := int64(t.Sub(s.epoch))
	for len(s.q.h) > 0 && s.q.h[0].at <= rel {
		s.runNext()
	}
	if s.now < rel {
		s.now = rel
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}

// Drain runs events until the queue is empty or limit events have run,
// whichever comes first. It returns the number of events run. Useful in
// tests that want quiescence.
func (s *Scheduler) Drain(limit int) int {
	n := 0
	for n < limit && s.Step() {
		n++
	}
	return n
}
