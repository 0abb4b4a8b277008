package main

import (
	"fmt"
	"sort"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/metrics"
)

// outcome is what one round's membership events and final views say
// about the failure detector, plus its operation tally.
type outcome struct {
	fp         int       // dead declarations about members that did not crash
	detectS    []float64 // per crash: crash → first dead declaration anywhere
	learnS     []float64 // per crash × survivor: crash → dead at that survivor
	attempted  int
	failed     int
	failReason string
}

// viewer is one member's membership view.
type viewer interface {
	Name() string
	Member(name string) (core.Member, bool)
}

// score classifies the dead declarations logged since start and checks
// the survivors' final views: every crash must be known as dead (or not
// known at all) by every survivor.
func score(events []metrics.Event, start time.Time, crashAt map[string]time.Time, survivors []viewer) outcome {
	var o outcome
	firstDead := map[string]time.Time{}
	learned := map[[2]string]time.Time{}
	for _, ev := range events {
		if ev.Type != metrics.EventDead || ev.Observer == ev.Subject || ev.Time.Before(start) {
			continue
		}
		crash, crashed := crashAt[ev.Subject]
		if !crashed || ev.Time.Before(crash) {
			o.fp++
			continue
		}
		if _, ok := firstDead[ev.Subject]; !ok {
			firstDead[ev.Subject] = ev.Time
		}
		if k := [2]string{ev.Subject, ev.Observer}; learned[k].IsZero() {
			learned[k] = ev.Time
		}
	}

	names := make([]string, 0, len(crashAt))
	for name := range crashAt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		crash := crashAt[name]
		o.attempted++
		if t, ok := firstDead[name]; ok {
			o.detectS = append(o.detectS, t.Sub(crash).Seconds())
		}
		notLearned := ""
		for _, v := range survivors {
			if m, known := v.Member(name); known && notLearned == "" && (m.State == core.StateAlive || m.State == core.StateSuspect) {
				notLearned = fmt.Sprintf("%s (%s, incarnation %d)", v.Name(), m.State, m.Incarnation)
			}
			if t, ok := learned[[2]string{name, v.Name()}]; ok {
				o.learnS = append(o.learnS, t.Sub(crash).Seconds())
			}
		}
		if notLearned != "" {
			o.fail("crash of " + name + " not learned by " + notLearned)
		}
	}
	return o
}

func (o *outcome) fail(reason string) {
	o.failed++
	if o.failReason == "" {
		o.failReason = reason
	}
}

// checkJoins counts one join operation per name and fails those that
// some observer does not see alive.
func checkJoins(observers []viewer, names []string) outcome {
	var o outcome
	for _, name := range names {
		o.attempted++
		for _, v := range observers {
			if v.Name() == name {
				continue
			}
			if m, ok := v.Member(name); !ok || m.State != core.StateAlive {
				o.fail("join of " + name + " not seen alive by " + v.Name())
				break
			}
		}
	}
	return o
}

func (o *outcome) merge(b outcome) {
	o.fp += b.fp
	o.detectS = append(o.detectS, b.detectS...)
	o.learnS = append(o.learnS, b.learnS...)
	o.attempted += b.attempted
	o.failed += b.failed
	if o.failReason == "" {
		o.failReason = b.failReason
	}
}

// quantile is the linear-interpolation quantile of values (0 for none).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
