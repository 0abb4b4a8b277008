package sim

// heapQueue is the scheduler's pending-event set: a binary min-heap on
// (at, seq), the scheduler's total execution order. Every pending event
// carries a pointer back to the queue and its slot in h, so Event.Stop
// removes it in O(log n) the moment it is stopped: the heap holds live
// events only, and a stopped event's callback is unreachable from it.
type heapQueue struct {
	h []*Event
}

// less is the total order: time, then schedule order.
func (q *heapQueue) less(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *heapQueue) push(e *Event) {
	e.q = q
	q.h = append(q.h, e)
	q.up(len(q.h)-1, e)
}

// remove takes the event in slot i out of the heap and returns it,
// refilling the slot with the last event and sifting that into place.
func (q *heapQueue) remove(i int) *Event {
	e := q.h[i]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		if !q.down(i, last) {
			q.up(i, last)
		}
	}
	e.q = nil
	return e
}

// up places e, which belongs in slot i or above it, by moving larger
// parents down into the hole.
func (q *heapQueue) up(i int, e *Event) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

// down places e, which belongs in slot i or below it, by moving smaller
// children up into the hole. It reports whether e moved below i.
func (q *heapQueue) down(i int, e *Event) bool {
	h := q.h
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && q.less(h[r], h[c]) {
			c = r
		}
		if !q.less(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = e
	e.index = int32(i)
	return i > start
}
