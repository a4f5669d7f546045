package sim

import (
	"container/heap"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/topology"
)

// event is a queue entry: either a message delivery or a scheduled function
// (configuration command, external event, probe). Each event carries the
// causal chain it belongs to: the root cause and the number of message hops
// between the root and this event (see cause.go).
type event struct {
	at    time.Duration
	seq   uint64 // tie-break, preserves insertion order at equal times
	msg   *message
	fn    func(*Network)
	cause CauseID
	hops  int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	// The vacated slot would keep the delivered event, and with it a
	// message payload, alive for as long as the backing array lives.
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

func (n *Network) push(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
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
	n.push(&event{at: t, fn: fn, cause: n.curCause, hops: n.curHops})
}

// ScheduleAfter runs fn after the given delay from the current simulated
// time.
func (n *Network) ScheduleAfter(d time.Duration, fn func(*Network)) {
	n.ScheduleAt(n.now+d, fn)
}

// sendMsg enqueues a BGP message honoring per-session FIFO ordering: a
// message never overtakes an earlier message on the same directed session.
// An installed fault injector may delay or duplicate the delivery; the
// fault is applied before the FIFO clamp so ordering is preserved.
func (n *Network) sendMsg(m *message) {
	delay := n.sessionDelay(m.from, m.to)
	if n.opts.Jitter > 0 {
		delay += time.Duration(n.rng.Int64N(int64(n.opts.Jitter)))
	}
	duplicate := false
	if n.faults != nil {
		switch f := n.faults.MessageFault(m.from, m.to); f.Kind {
		case FaultDelay:
			if f.DelayFactor > 1 {
				delay = time.Duration(float64(delay) * f.DelayFactor)
				n.count(obs.CtrFaultsMessage, 1)
			}
		case FaultDuplicate:
			duplicate = true
			n.count(obs.CtrFaultsMessage, 1)
		}
	}
	key := sessKey{m.from, m.to}
	enqueue := func(at time.Duration) time.Duration {
		if last, ok := n.lastDelivery[key]; ok && at <= last {
			at = last + time.Microsecond
		}
		n.lastDelivery[key] = at
		// A message is one propagation hop deeper than the event that sent
		// it; the cause rides along unchanged.
		n.push(&event{at: at, msg: m, cause: n.curCause, hops: n.curHops + 1})
		return at
	}
	at := enqueue(n.now + delay)
	if duplicate {
		enqueue(at + delay/2)
	}
}

type sessKey struct{ from, to topology.NodeID }
