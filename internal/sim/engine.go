// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every other simulated subsystem in this repository:
// disks, block queues, the network, and the Lustre-like file system are all
// implemented as callbacks scheduled on a single Engine. Time is modelled as
// int64 nanoseconds so that runs are exactly reproducible for a given seed.
//
// The engine is intentionally single-threaded: events run one at a time in
// (time, insertion) order. Simulated concurrency comes from interleaving
// events, not goroutines, which keeps runs deterministic and fast.
package sim

import (
	"fmt"
	"math"

	"quanterference/internal/obs"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time = int64

// Common durations, mirroring time.Duration constants but typed as sim.Time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time {
	return Time(math.Round(s * float64(Second)))
}

// ToSeconds converts a Time to floating-point seconds.
func ToSeconds(t Time) float64 {
	return float64(t) / float64(Second)
}

// event is a single scheduled callback. The queue stores events by value, so
// scheduling one allocates nothing beyond what the caller's fn already is.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

// before orders events by (at, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator clock and event queue.
type Engine struct {
	now Time
	seq uint64
	// events is a binary min-heap on (at, seq), sifted inline: the
	// steady-state hot loop allocates nothing once the slice has grown to
	// the run's peak queue depth.
	events  []event
	stopped bool
	// executed counts events that have run; useful for progress assertions.
	executed uint64

	// Observability handles; nil (one branch per event) unless Instrument
	// attached a sink.
	cEvents    *obs.Counter
	cScheduled *obs.Counter
	gQueueMax  *obs.Gauge
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Instrument registers the engine's metrics on the sink: events executed,
// events scheduled, and the maximum event-queue depth seen.
func (e *Engine) Instrument(s *obs.Sink) {
	e.cEvents = s.Counter("engine", "", "events_executed")
	e.cScheduled = s.Counter("engine", "", "events_scheduled")
	e.gQueueMax = s.Gauge("engine", "", "max_queue_depth")
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay. A zero delay schedules fn to run after all
// callbacks already queued for the current instant. Negative delays panic:
// they always indicate a modelling bug.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %d < now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
	e.cScheduled.Inc()
	e.gQueueMax.Max(float64(len(e.events)))
}

// siftUp restores the heap order after an append at index i.
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the fn reference so the closure can be collected
	h = h[:n]
	e.events = h
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.executed++
	e.cEvents.Inc()
	ev.fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled for later remain queued.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the current Run or RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }
