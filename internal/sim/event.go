package sim

import (
	"container/heap"

	"wadc/internal/obs"
)

// event is a scheduled occurrence: at time at, either run fn (a pure callback
// executed in the scheduler's own goroutine) or wake proc (transfer control to
// a blocked process goroutine).
type event struct {
	at   Time
	seq  uint64 // insertion sequence, breaks ties deterministically
	fn   func()
	proc *Proc
	// tenant is the tenant register captured when the event was scheduled,
	// restored while a pure callback runs so telemetry emitted from timer
	// context is attributed to the tenant that armed the timer. (Process
	// wake-ups take the tenant from the process itself instead.)
	tenant int32
	// subsys is the obs region captured when a pure callback was
	// scheduled, so wall time spent in timer callbacks is attributed to
	// the subsystem that armed the timer. Only written when a recorder is
	// attached; process wake-ups use the process's own region instead.
	subsys obs.Subsystem
	// index within the heap, maintained by the heap.Interface methods so
	// that cancelled events can be removed in O(log n).
	index     int
	cancelled bool
}

// eventQueue is a min-heap of events ordered by (at, seq). The seq tie-break
// makes event ordering — and therefore the whole simulation — deterministic
// for a fixed program and seed.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// push inserts an event maintaining heap order.
func (q *eventQueue) push(ev *event) { heap.Push(q, ev) }

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *event { return heap.Pop(q).(*event) }

// remove deletes the event at index i.
func (q *eventQueue) remove(i int) { heap.Remove(q, i) }

// Timer is a handle to a scheduled callback; Stop cancels it if it has not
// yet fired.
type Timer struct {
	k       *Kernel
	ev      *event
	stopped bool
}

// Stop cancels the timer. It reports whether the callback was prevented:
// false when the timer already fired or was already stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	if t.ev == nil || t.ev.cancelled || t.ev.index < 0 {
		return false
	}
	t.ev.cancelled = true
	t.k.events.remove(t.ev.index)
	return true
}
