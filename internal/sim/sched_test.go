package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []int
	s.Schedule(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(1*time.Second, func() { order = append(order, 1) })
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	s.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := s.Now(); !got.Equal(time.Unix(10, 0)) {
		t.Errorf("now = %v, want t+10s", got)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant order = %v", order)
		}
	}
}

func TestSchedulerNegativeDelayClamps(t *testing.T) {
	s := NewScheduler(time.Unix(100, 0))
	ran := false
	s.Schedule(-time.Hour, func() { ran = true })
	s.Step()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if got := s.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Errorf("time moved backwards: %v", got)
	}
}

func TestSchedulerStopCancels(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := false
	e := s.Schedule(time.Second, func() { ran = true })
	if !e.Stop() {
		t.Fatal("Stop on pending event returned false")
	}
	if e.Stop() {
		t.Error("second Stop returned true")
	}
	s.RunFor(5 * time.Second)
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestSchedulerStopAfterRun(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	e := s.Schedule(time.Second, func() {})
	s.RunFor(2 * time.Second)
	if e.Stop() {
		t.Error("Stop after execution returned true")
	}
}

func TestSchedulerEventSchedulingEvents(t *testing.T) {
	// Events scheduled from within callbacks at the same RunUntil
	// horizon must execute in the same pass.
	s := NewScheduler(time.Unix(0, 0))
	var hits []time.Duration
	var chain func()
	chain = func() {
		hits = append(hits, s.Now().Sub(time.Unix(0, 0)))
		if len(hits) < 5 {
			s.Schedule(time.Second, chain)
		}
	}
	s.Schedule(time.Second, chain)
	s.RunFor(10 * time.Second)
	if len(hits) != 5 {
		t.Fatalf("chain ran %d times, want 5", len(hits))
	}
	for i, h := range hits {
		if want := time.Duration(i+1) * time.Second; h != want {
			t.Errorf("hit %d at %v, want %v", i, h, want)
		}
	}
}

func TestSchedulerRunUntilDoesNotOvershoot(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := false
	s.Schedule(5*time.Second, func() { ran = true })
	s.RunFor(4 * time.Second)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if s.Len() != 1 {
		t.Fatalf("pending = %d", s.Len())
	}
	s.RunFor(2 * time.Second)
	if !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

func TestSchedulerZeroDelayFromCallbackRunsSamePass(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(0, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunFor(0)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100 (zero-delay chain must drain)", depth)
	}
}

func TestSchedulerDrainLimit(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if got := s.Drain(4); got != 4 {
		t.Fatalf("Drain(4) ran %d", got)
	}
	if got := s.Drain(100); got != 6 {
		t.Fatalf("second Drain ran %d, want 6", got)
	}
}

func TestSchedulerExecutedCount(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	for i := 0; i < 7; i++ {
		s.Schedule(time.Millisecond, func() {})
	}
	s.RunFor(time.Second)
	if got := s.Executed(); got != 7 {
		t.Fatalf("executed = %d, want 7", got)
	}
}

func TestQuickSchedulerNeverRunsOutOfOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(time.Unix(0, 0))
		var times []time.Time
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Millisecond, func() {
				times = append(times, s.Now())
			})
		}
		s.RunFor(100 * time.Second)
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClockImplementsTimeutil(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	c := NewClock(s)
	fired := false
	timer := c.AfterFunc(time.Second, func() { fired = true })
	if got := c.Now(); !got.Equal(time.Unix(0, 0)) {
		t.Errorf("now = %v", got)
	}
	s.RunFor(500 * time.Millisecond)
	if fired {
		t.Fatal("fired early")
	}
	s.RunFor(time.Second)
	if !fired {
		t.Fatal("did not fire")
	}
	if timer.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestSchedulerMatchesSortOracle pins the ordering contract against a
// trivial oracle: a shadow of the pending set that the test keeps
// itself and sorts by (at, seq). Every event that runs must be the
// shadow's head, at its own time; every Stop must report whether its
// event was in the shadow; Len must equal the shadow's size, so it never
// counts stopped events; and RunUntil must leave nothing at or before
// its horizon. The seeded workload mixes delays over twelve orders of
// magnitude, the pooled and handle-returning surfaces, re-entrant
// scheduling, and Stop calls from inside callbacks on pending,
// already-run and already-stopped events.
func TestSchedulerMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkAgainstSortOracle(t, seed)
	}
}

type shadowEvent struct {
	at  int64
	seq uint64
}

func checkAgainstSortOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := NewScheduler(time.Unix(0, 0))
	var shadow []*shadowEvent
	var seq, ran uint64
	type handle struct {
		ev *Event
		sh *shadowEvent
	}
	var handles []handle

	delay := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(int64(time.Microsecond))
		case 2:
			return rng.Int63n(int64(10 * time.Second))
		case 3:
			return rng.Int63n(int64(1000 * time.Hour))
		default:
			return rng.Int63n(int64(50 * time.Millisecond))
		}
	}
	stopOne := func() {
		if len(handles) == 0 {
			return
		}
		h := handles[rng.Intn(len(handles))]
		i := 0
		for i < len(shadow) && shadow[i] != h.sh {
			i++
		}
		pending := i < len(shadow)
		if got := h.ev.Stop(); got != pending {
			t.Fatalf("seed %d: Stop on event (%d, %d) = %v, oracle %v", seed, h.sh.at, h.sh.seq, got, pending)
		}
		if pending {
			shadow = append(shadow[:i], shadow[i+1:]...)
		}
	}
	var schedule func()
	run := func(sh *shadowEvent) {
		sort.Slice(shadow, func(i, j int) bool {
			a, b := shadow[i], shadow[j]
			return a.at < b.at || (a.at == b.at && a.seq < b.seq)
		})
		if head := shadow[0]; head != sh || s.now != sh.at {
			t.Fatalf("seed %d: ran (%d, %d) at %d, oracle head (%d, %d)", seed, sh.at, sh.seq, s.now, head.at, head.seq)
		}
		shadow = shadow[1:]
		ran++
		switch rng.Intn(4) {
		case 0:
			schedule()
		case 1:
			stopOne()
		}
	}
	schedule = func() {
		seq++
		d := delay()
		sh := &shadowEvent{at: s.now + d, seq: seq}
		shadow = append(shadow, sh)
		switch rng.Intn(3) {
		case 0:
			s.scheduleArg(time.Duration(d), func(a any) { run(a.(*shadowEvent)) }, sh)
		case 1:
			handles = append(handles, handle{s.Schedule(time.Duration(d), func() { run(sh) }), sh})
		default:
			handles = append(handles, handle{s.ScheduleAt(time.Unix(0, sh.at), func() { run(sh) }), sh})
		}
	}

	for round := 0; round < 300; round++ {
		for i, n := 0, rng.Intn(20); i < n; i++ {
			schedule()
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			stopOne()
		}
		if rng.Intn(3) == 0 {
			for i, n := 0, rng.Intn(10); i < n; i++ {
				s.Step()
			}
		} else {
			horizon := s.now + rng.Int63n(int64(time.Second))
			s.RunUntil(time.Unix(0, horizon))
			for _, sh := range shadow {
				if sh.at <= horizon {
					t.Fatalf("seed %d: event (%d, %d) left pending past horizon %d", seed, sh.at, sh.seq, horizon)
				}
			}
			if s.now != horizon {
				t.Fatalf("seed %d: clock at %d after RunUntil(%d)", seed, s.now, horizon)
			}
		}
		if s.Len() != len(shadow) || s.Executed() != ran {
			t.Fatalf("seed %d: Len=%d Executed=%d, oracle %d and %d", seed, s.Len(), s.Executed(), len(shadow), ran)
		}
	}
	for s.Step() {
	}
	if len(shadow) != 0 {
		t.Fatalf("seed %d: %d oracle events never ran", seed, len(shadow))
	}
}

// TestSchedulerZeroDelayBurst piles many same-instant events into the
// queue and checks strict FIFO order.
func TestSchedulerZeroDelayBurst(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var got []int
	for i := 0; i < 500; i++ {
		i := i
		s.Schedule(0, func() { got = append(got, i) })
	}
	s.RunFor(time.Nanosecond)
	if len(got) != 500 {
		t.Fatalf("ran %d of 500 zero-delay events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("zero-delay order broken at %d: got %d", i, v)
		}
	}
}

// TestSchedulerFarFutureEvent schedules an event far ahead of a dense
// near-term workload: it must wait out the near-term work, survive a
// horizon that stops short of it, and run once the clock gets there.
func TestSchedulerFarFutureEvent(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	var order []string
	s.Schedule(1000*time.Hour, func() { order = append(order, "far") })
	for i := 0; i < 200; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() { order = append(order, "near") })
	}
	s.RunFor(time.Second)
	if len(order) != 200 || order[0] != "near" {
		t.Fatalf("near-term events did not all run first: %d ran", len(order))
	}
	if s.Len() != 1 {
		t.Fatalf("far-future event missing from queue: Len=%d", s.Len())
	}
	s.RunFor(2000 * time.Hour)
	if len(order) != 201 || order[200] != "far" {
		t.Fatalf("far-future event did not run after the clock caught up")
	}
	if got := s.Now().Sub(time.Unix(0, 0)); got < 1000*time.Hour {
		t.Fatalf("clock did not advance past the far event: %v", got)
	}
}

// TestSchedulerCancelledDiscard stops every pending event and checks
// each Stop takes its event out of the queue at once, before anything
// runs, and that none of them ever runs.
func TestSchedulerCancelledDiscard(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	ran := 0
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.Schedule(time.Duration(i)*time.Millisecond, func() { ran++ }))
	}
	for i, e := range evs {
		if !e.Stop() {
			t.Fatal("Stop on a pending event reported false")
		}
		if got, want := s.Len(), len(evs)-i-1; got != want {
			t.Fatalf("after %d Stops: Len=%d, want %d", i+1, got, want)
		}
	}
	for _, e := range evs {
		if e.Stop() {
			t.Fatal("second Stop reported true")
		}
	}
	if s.Step() {
		t.Fatal("Step on a queue of stopped events reported work")
	}
	s.RunFor(time.Second)
	if ran != 0 {
		t.Fatalf("%d cancelled events ran", ran)
	}
}

// TestSchedulerStopReleasesCallback pins the memory property the
// simulator's peak heap depends on: a stopped timer's closure, and
// whatever it captures, is collectable at once, even while the caller
// still holds the *Event handle and other events stay pending.
func TestSchedulerStopReleasesCallback(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	s.Schedule(time.Minute, func() {})
	freed := make(chan struct{})
	e := func() *Event {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(freed) })
		return s.Schedule(time.Hour, func() { captured[0]++ })
	}()
	s.Schedule(2*time.Hour, func() {})
	if s.Len() != 3 {
		t.Fatalf("Len=%d, want 3", s.Len())
	}
	if !e.Stop() {
		t.Fatal("Stop on a pending event reported false")
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d after Stop, want 2", s.Len())
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("stopped event's callback is still reachable after GC")
}

// paperLoad is a scheduler workload shaped like the paper-128 run rather
// than uniform random times: about 1,400 pending events, a third of the
// executed events timers and the rest packet stages. Each member has a
// 200ms gossip tick that sends a packet and a 1s probe tick whose
// ping/ack round trip stops a 500ms probe timeout (5% of pings are
// lost, so the timeout fires). One probe in ten raises a suspicion that
// 14 members time with their own 8–12s timer; 55% of suspicions are
// refuted, which stops every one of those timers within 0.5–4s. Each
// packet is two pooled events, a 0.2–2ms delivery and a 100µs service
// stage, as in the simulated network. Like experiment.Cluster, which
// starts every member at one instant, all members' ticks are in phase:
// the timers arrive in bursts of 128 at the same nanosecond, with
// only the packet tails between them.
type paperLoad struct {
	s   *Scheduler
	rng *rand.Rand

	gossip, probe, noop func()
	deliver, serve      func(any)
}

func newPaperLoad(s *Scheduler, members int, seed int64) *paperLoad {
	l := &paperLoad{s: s, rng: rand.New(rand.NewSource(seed))}
	l.noop = func() {}
	l.gossip = func() {
		s.Schedule(200*time.Millisecond, l.gossip)
		s.scheduleArg(l.between(200*time.Microsecond, 2*time.Millisecond), l.deliver, nil)
	}
	l.probe = func() {
		s.Schedule(time.Second, l.probe)
		timeout := s.Schedule(500*time.Millisecond, l.noop)
		if l.rng.Intn(20) != 0 {
			s.scheduleArg(l.between(400*time.Microsecond, 4*time.Millisecond), l.deliver, timeout)
		}
		if l.rng.Intn(10) == 0 {
			refuted := l.rng.Intn(100) < 55
			for i := 0; i < 14; i++ {
				susp := s.Schedule(l.between(8*time.Second, 12*time.Second), l.noop)
				if refuted {
					s.scheduleArg(l.between(500*time.Millisecond, 4*time.Second), l.deliver, susp)
				}
			}
		}
	}
	l.deliver = func(stop any) { s.scheduleArg(100*time.Microsecond, l.serve, stop) }
	l.serve = func(stop any) {
		if e, ok := stop.(*Event); ok {
			e.Stop()
		}
	}
	for i := 0; i < members; i++ {
		s.Schedule(time.Second, l.probe)
		s.Schedule(200*time.Millisecond, l.gossip)
	}
	return l
}

func (l *paperLoad) between(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(l.rng.Int63n(int64(hi-lo)))
}

// BenchmarkSchedulerInsertPop measures one event-loop step — pop the
// earliest event and run it, including the schedules and Stops it makes
// — under the paper-128-shaped load of paperLoad, after a minute of
// virtual warm-up brings the pending set to steady state.
func BenchmarkSchedulerInsertPop(b *testing.B) {
	b.Run("paper-128", func(b *testing.B) {
		s := NewScheduler(time.Unix(0, 0))
		newPaperLoad(s, 128, 1)
		s.RunFor(time.Minute)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// TestPaperLoadShape keeps paperLoad at its documented shape, the
// pending-set size and timer share a traced paper-128 run shows (about
// 1,360 pending, about 30% of executed events core timers).
func TestPaperLoadShape(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	newPaperLoad(s, 128, 1)
	s.RunFor(time.Minute)
	var pending, timers, steps int
	for ; steps < 200000; steps++ {
		pending += s.Len()
		if !s.q.h[0].pooled {
			timers++
		}
		s.Step()
	}
	mean, share := pending/steps, float64(timers)/float64(steps)
	if mean < 1000 || mean > 2000 || share < 0.2 || share > 0.45 {
		t.Fatalf("pending mean %d, timer share %.2f: want 1000–2000 and 0.2–0.45", mean, share)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(time.Unix(0, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 0 {
			s.Drain(1 << 20)
		}
	}
	s.Drain(1 << 30)
}
