package sim

import (
	"time"

	"chameleon/internal/obs"
)

// event is a queue entry: either a message delivery or a scheduled function
// (configuration command, external event, probe). Each event carries the
// causal chain it belongs to: the root cause and the number of message hops
// between the root and this event (see cause.go). A delivery is the
// message's own delivery field, so a message and its event are one
// allocation. cmd marks a command application (ScheduleCommand): it and a
// delivery are what BGP has in flight (see Converged). epoch is a delivery's
// session epoch at send time (see deliver). cmd, a 32-bit hops and epoch
// share the word after cause, which keeps an event at 48 bytes.
type event struct {
	at    time.Duration
	seq   uint64 // tie-break, preserves insertion order at equal times
	msg   *message
	fn    func(*Network)
	cause CauseID
	cmd   bool
	hops  int32
	epoch uint32
}

// inFlight reports whether e is BGP work in flight: a delivery or a command
// application.
func (e *event) inFlight() bool { return e.msg != nil || e.cmd }

// before orders events by (at, seq). seq is unique, so the order is total:
// events pop in one order whatever shape the heap has.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []*event

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	top, last := h[0], len(h)-1
	e := h[last]
	// The vacated slot would keep the delivered event, and with it a
	// message payload, alive for as long as the backing array lives.
	h[last] = nil
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(e) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = e
	}
	*q = h
	return top
}

func (n *Network) push(at time.Duration, e *event) {
	e.at, e.seq = at, n.seq
	n.queue.push(e)
	n.seq++
	if e.inFlight() {
		n.inFlight++
	}
}

// ScheduleAt runs fn when the simulated clock reaches t. Functions
// scheduled for the past run at the current time. The scheduled function
// inherits the ambient causal chain: scheduling from inside an event
// handler (a flap's re-establish timer, a fault-layer wrapper) keeps the
// scheduler's cause; scheduling from outside the event loop roots a chain
// with no cause.
func (n *Network) ScheduleAt(t time.Duration, fn func(*Network)) {
	if t < n.now {
		t = n.now
	}
	n.push(t, &event{fn: fn, cause: n.curCause, hops: int32(n.curHops)})
}

// ScheduleAfter runs fn after the given delay from the current simulated
// time.
func (n *Network) ScheduleAfter(d time.Duration, fn func(*Network)) {
	n.ScheduleAt(n.now+d, fn)
}

// sendMsg enqueues a BGP message honoring per-session FIFO ordering: a
// message never overtakes an earlier message on the same directed session.
// An installed Delivery may change the delay or copy the message; the FIFO
// clamp applies after it, so ordering is preserved.
func (n *Network) sendMsg(m *message) {
	delay := n.sessionDelay(m.from, m.to)
	if n.opts.Jitter > 0 {
		delay += time.Duration(n.rng.Int64N(int64(n.opts.Jitter)))
	}
	var dup time.Duration
	if n.delivery != nil {
		took, d := n.delivery.Deliver(m.from, m.to, delay)
		if took != delay || d > 0 {
			n.count(obs.CtrFaultsMessage, 1)
		}
		delay, dup = took, d
	}
	// The receiver's peer entry for the sender holds the session's lane and
	// epoch.
	pe := n.routers[m.to].peerFor(m.from)
	// A message is one propagation hop deeper than the event that sent it;
	// the cause rides along unchanged.
	m.delivery = event{msg: m, cause: n.curCause, hops: int32(n.curHops + 1), epoch: pe.epoch}
	at := n.enqueue(pe, m, n.now+delay)
	if dup > 0 {
		// The copy shares the payload, which nothing writes to.
		c := *m
		c.delivery.msg = &c
		n.enqueue(pe, &c, at+dup)
	}
}

// enqueue puts m at the tail of pe's lane, the messages in flight on one
// directed session in send order. m is due at at, or just after the lane's
// current tail if that is due no earlier: the FIFO clamp. Only a lane's head
// waits in the heap; Step moves the next message up when it pops one. An
// empty lane needs no clamp: its last delivery happened at or before now,
// and no delivery is due before now (a Delivery's delay is ≥ 0). Within a
// lane at and seq both strictly increase, so the heap pops events in the
// order it would if it held every message. It returns the time m is due.
func (n *Network) enqueue(pe *peer, m *message, at time.Duration) time.Duration {
	e := &m.delivery
	if pe.tail != nil && at <= pe.tail.delivery.at {
		at = pe.tail.delivery.at + time.Microsecond
	}
	e.at, e.seq = at, n.seq
	n.seq++
	n.inFlight++
	if pe.tail == nil {
		n.queue.push(e)
	} else {
		pe.tail.next = m
		n.laned++
	}
	pe.tail = m
	return at
}

// dequeue takes m, just popped, off its lane: the next message on m's
// session, if any, takes its place in the heap, else the lane is empty. A
// delivered message keeps no link, so it holds nothing alive.
func (n *Network) dequeue(m *message) {
	if next := m.next; next != nil {
		m.next = nil
		n.laned--
		n.queue.push(&next.delivery)
		return
	}
	n.routers[m.to].peer(m.from).tail = nil
}
