package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestEventSize holds an event at 48 bytes: every message carries one, so
// a field that grows it grows every message in flight. A command flag
// appended after hops made it 56 bytes and read +1.8 % exec-replay
// alloc_mb_per_op (0.1848 → 0.1882 MB); in cause's padding it costs nothing.
// A message, its delivery event and lane link included, stays inside the
// 112-byte size class: the session epoch shares the word after cause with
// cmd and hops, and announcements and withdrawals share one payload slice
// (two made it 128 bytes). A peer entry is 48 bytes: a clone copies every
// router's peer table. A router is at most 88 bytes: a clone allocates one
// per node (§8 aggregation's rule slice made it 112).
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(message{}); got > 112 {
		t.Errorf("unsafe.Sizeof(message{}) = %d, want at most 112", got)
	}
	if got := unsafe.Sizeof(peer{}); got != 48 {
		t.Errorf("unsafe.Sizeof(peer{}) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(router{}); got > 88 {
		t.Errorf("unsafe.Sizeof(router{}) = %d, want at most 88", got)
	}
}

// TestCauseRecordSize holds a cause log record at 32 bytes: every command
// and external event registers one (a Cause, which the log stored before,
// is 72).
func TestCauseRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(causeRec{}); got != 32 {
		t.Errorf("unsafe.Sizeof(causeRec{}) = %d, want 32", got)
	}
}

// TestEventQueueOrder runs the event heap in lockstep with a slice kept
// sorted by (at, seq) over seeded push and pop sequences: times drawn from
// a handful of values so most pushes tie on at, and deliveries duplicated
// the way a FaultDuplicate fault enqueues them (a copy of the delivery
// event, for the same message, later). Every pop must return the event the
// slice holds first, and leave no event behind in the vacated slot.
func TestEventQueueOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := &Network{}
		var ref []*event
		var sent []*message
		pop := func(step int) {
			t.Helper()
			got := n.queue.pop()
			if got != ref[0] {
				t.Fatalf("seed %d step %d: popped (%v, %d), want (%v, %d)",
					seed, step, got.at, got.seq, ref[0].at, ref[0].seq)
			}
			ref = ref[1:]
			if tail := n.queue[len(n.queue):cap(n.queue)]; len(tail) > 0 && tail[0] != nil {
				t.Fatalf("seed %d step %d: the vacated slot still holds an event", seed, step)
			}
		}
		for step := range 2_000 {
			if len(ref) > 0 && rng.IntN(5) < 2 {
				pop(step)
				continue
			}
			at := time.Duration(rng.IntN(4)) * time.Millisecond
			var e *event
			if len(sent) > 0 && rng.IntN(4) == 0 {
				m := sent[rng.IntN(len(sent))]
				dup := m.delivery
				e = &dup
				at += m.delivery.at
			} else {
				m := &message{}
				m.delivery = event{msg: m}
				sent = append(sent, m)
				e = &m.delivery
			}
			n.push(at, e)
			ref = append(ref, e)
			slices.SortFunc(ref, func(a, b *event) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
			})
		}
		for step := 0; len(ref) > 0; step++ {
			pop(step)
		}
		if len(n.queue) != 0 {
			t.Fatalf("seed %d: %d events left after the reference drained", seed, len(n.queue))
		}
	}
}
