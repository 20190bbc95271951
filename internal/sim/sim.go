// Package sim is the discrete-event simulation substrate for the SoV. The
// end-to-end characterization (Fig. 10) runs on a virtual clock so that the
// published latency distribution can be reproduced deterministically,
// independent of the host machine.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. Events at the same time fire in insertion
// order, which keeps the simulation deterministic.
type Event struct {
	At   time.Duration
	Name string
	Fn   func()

	seq int
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine runs events on a virtual clock.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	nextSeq int
	stopped bool
	// free recycles fired Event structs so a steady-state event loop does
	// not allocate per Schedule call.
	free []*Event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule enqueues fn to run after delay. Negative delays are clamped to
// "now" so callers can schedule with already-elapsed deadlines.
func (e *Engine) Schedule(delay time.Duration, name string, fn func()) {
	if delay < 0 {
		delay = 0
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{At: e.now + delay, Name: name, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// Every schedules fn at a fixed period starting after one period, until the
// engine stops or the horizon passes.
func (e *Engine) Every(period time.Duration, name string, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for %s", period, name))
	}
	var tick func()
	tick = func() {
		fn()
		if !e.stopped {
			e.Schedule(period, name, tick)
		}
	}
	e.Schedule(period, name, tick)
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine was halted by Stop since the last Run
// began. Incremental drivers (the fleet epoch loop) check it between Run
// horizons: a stopped engine has dropped its periodic events, so advancing
// it further is a no-op and the vehicle should be retired instead.
func (e *Engine) Stopped() bool { return e.stopped }

// Run processes events until the queue is empty, the horizon is exceeded, or
// Stop is called. It returns the number of events processed.
func (e *Engine) Run(horizon time.Duration) int {
	e.stopped = false
	n := 0
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].At > horizon {
			e.now = horizon
			return n
		}
		ev := heap.Pop(&e.queue).(*Event)
		e.now = ev.At
		fn := ev.Fn
		// A fired event is referenced by nobody but this loop; recycle it
		// before running fn (which may Schedule and reuse it immediately).
		ev.Fn = nil
		e.free = append(e.free, ev)
		fn()
		n++
	}
	return n
}
