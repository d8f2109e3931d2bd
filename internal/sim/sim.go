// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds, which represents the paper's
// finest-grained parameter (G in ps/Byte) exactly and spans roughly 106 days
// in an int64 — far beyond any simulated run. Events scheduled for the same
// instant fire in scheduling order (a monotonic sequence number breaks ties),
// so simulations are bit-reproducible across runs.
//
// The event queue is a hand-specialized 4-ary min-heap over a flat []event
// slice: no interface boxing, no container/heap indirection, and popped
// slots are recycled in place, so steady-state scheduling allocates nothing.
// Every event is a pre-bound (func(any), arg) pair scheduled with
// ScheduleCall — a non-capturing callback plus a pointer-shaped argument
// schedules without allocating a closure — and ReserveSeq/ScheduleCallSeq
// let a caller claim a block of sequence numbers up front so deferred
// scheduling preserves the exact tie-break order of eager scheduling.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is one queue entry: the pre-bound callback call(arg). stamp is the
// engine clock at the moment the event's sequence number was allocated
// (ScheduleCall time, or ReserveSeq time for deferred scheduling); pri is
// the caller-supplied priority key of ScheduleCallSeq events (0 for
// everything else).
type event struct {
	at    Time
	stamp Time
	pri   uint64
	seq   uint64
	call  func(any)
	arg   any
}

// less orders events by deadline, then allocation stamp, then priority key,
// then sequence number. The stamp and priority exist for the parallel-DES
// mode (see Windows): an event migrated onto this engine at a window barrier
// gets a fresh local seq, so seq values cannot be compared across engines —
// instead, migratable events carry a priority key derived from
// simulation-visible state (netsim uses the source node's send counter),
// identical no matter which engine schedules them. Plain ScheduleCall
// events have pri 0 and win every tie against keyed events, again
// identically in serial and parallel runs; between two pri-0 events
// the seq tie-break is sound because such events are always scheduled by
// the same logical process in the same relative order in either mode.
func (a *event) less(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves tree depth
// versus binary, trading a slightly wider sift-down for far fewer swaps on
// push — the common operation in a simulation that schedules more than it
// reorders.
const heapArity = 4

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; create engines with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	events    []event // 4-ary min-heap, specialized (no container/heap)
	processed uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to its post-construction state: clock at zero,
// sequence counter at zero, empty queue. The event slice's capacity is
// retained so a reset engine schedules without growing the heap again; any
// still-queued events are dropped (their callbacks never run) and their
// references released. Reset is the engine-level half of the cluster-reuse
// contract: a reset engine is indistinguishable from a fresh one to the
// simulation, because scheduling order depends only on (time, seq) pairs,
// which restart identically.
func (e *Engine) Reset() {
	for i := range e.events {
		e.events[i] = event{} // release call/arg references for the GC
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }

// push inserts ev, restoring the heap property by sifting up.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// pop removes and returns the minimum event, sifting down from the root.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop call/arg references so the GC can reclaim them
	h = h[:n]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if h[j].less(&h[min]) {
				min = j
			}
		}
		if !h[min].less(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.events = h
	return root
}

// checkAt panics on scheduling in the past: it indicates a model bug
// (causality violation), and silently clamping would hide it.
func (e *Engine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// ScheduleCall runs fn(arg) at absolute time at. The callback and its
// argument are stored directly in the event, so callers that reuse a
// non-capturing fn (and a pooled or pointer-typed arg) schedule without
// allocating a closure.
func (e *Engine) ScheduleCall(at Time, fn func(any), arg any) {
	e.checkAt(at)
	e.seq++
	e.push(event{at: at, stamp: e.now, seq: e.seq, call: fn, arg: arg})
}

// ReserveSeq claims n consecutive sequence numbers and returns the first.
// A caller that will schedule n related events lazily (e.g. one packet
// arrival at a time) reserves their tie-break positions up front, so the
// eventual ScheduleCallSeq calls fire in exactly the order they would have
// had they all been scheduled eagerly at reservation time. The caller must
// also capture Now() at reservation time and pass it as the stamp of every
// deferred ScheduleCallSeq, preserving the eager order under the
// (at, stamp, seq) comparator.
func (e *Engine) ReserveSeq(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// ScheduleCallSeq is ScheduleCall with an explicit sequence number obtained
// from ReserveSeq, the engine clock captured at reservation time as the
// tie-break stamp, and a caller-supplied priority key ordered between the
// stamp and the sequence number. Callers that never migrate events across
// engines may pass pri 0; parallel-DES callers must derive pri from
// simulation state so it is identical in serial and partitioned runs (see
// the less comparator). Reusing a sequence number, inventing one, or
// passing a stamp other than the reservation-time clock breaks the
// engine's determinism contract.
func (e *Engine) ScheduleCallSeq(at, stamp Time, pri, seq uint64, fn func(any), arg any) {
	e.checkAt(at)
	e.push(event{at: at, stamp: stamp, pri: pri, seq: seq, call: fn, arg: arg})
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.processed++
	ev.call(ev.arg)
	return true
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with deadlines <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunBefore executes events with deadlines strictly below bound, including
// any such events they schedule, and leaves the clock at the last executed
// event (it does NOT advance the clock to bound — unlike RunUntil, an engine
// stopped by RunBefore can still accept events at any time >= its last
// event). This is one logical process's share of a conservative parallel
// window: with bound = horizon + lookahead, every event below bound is
// causally independent of the other processes' pending work.
func (e *Engine) RunBefore(bound Time) {
	for len(e.events) > 0 && e.events[0].at < bound {
		e.Step()
	}
}

// NextEventTime returns the deadline of the earliest pending event, and
// whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}
