// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds, which represents the paper's
// finest-grained parameter (G in ps/Byte) exactly and spans roughly 106 days
// in an int64 — far beyond any simulated run. Events scheduled for the same
// instant fire in scheduling order (a monotonic sequence number breaks ties),
// so simulations are bit-reproducible across runs.
//
// The event queue is an adaptive calendar queue (Brown, CACM 1988) over an
// engine-owned node slab: each bucket holds the events of one day-slot of
// the calendar as a sorted doubly linked list, an insert is linked in from
// the bucket's tail or from its insertion finger (the node last linked in
// before the tail), the minimum is found by a cursor sweeping forward day
// by day, and the bucket count and width retune themselves to the queue's
// depth and the spacing of its deadlines. Nodes are recycled through a free
// list, so steady-state scheduling allocates nothing. Every event is a
// pre-bound (func(any), arg) pair scheduled with ScheduleCall — a
// non-capturing callback plus a pointer-shaped argument schedules without
// allocating a closure — and ReserveSeq/ScheduleCallSeq let a caller claim
// a block of sequence numbers up front so deferred scheduling preserves the
// exact tie-break order of eager scheduling.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

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

// node is one queue entry: the pre-bound callback call(arg). stamp is the
// engine clock at the moment the event's sequence number was allocated
// (ScheduleCall time, or ReserveSeq time for deferred scheduling); pri is
// the caller-supplied priority key of ScheduleCallSeq events (0 for
// everything else). next and prev link the node into its bucket's sorted
// list (a free node's next links the free list); -1 is the nil link.
type node struct {
	at         Time
	stamp      Time
	pri        uint64
	seq        uint64
	call       func(any)
	arg        any
	next, prev int32
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
func (a *node) less(b *node) bool {
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

// bucket is one slot of the calendar: the ends of a list of nodes sorted by
// less, -1 when empty, and last, the insertion finger: the node most
// recently linked in before the tail, or -1. Events of one burst tend to
// land next to each other, so an insert that sorts before the tail starts
// its walk at the finger rather than at the tail.
type bucket struct{ head, tail, last int32 }

const (
	// minBuckets is the smallest calendar; the bucket count is always a
	// power of two.
	minBuckets = 4
	// initShift is the bucket width (log2 ps) of a new engine, 1.024 ns,
	// until its first retune.
	initShift = 10
)

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; create engines with NewEngine.
//
// The queue is a calendar: an event's day is at>>shift, and it lives in
// bucket day mod len(buckets). The cursor cur never passes a pending event:
// no queued event has a day below cur, so the head of bucket cur (when its
// day is cur) is the global minimum. The bucket count doubles when the queue
// holds more than two events per bucket and halves when it holds fewer than
// one per two buckets; every 4×len(buckets) dispatches the width is
// re-derived from the mean gap between the dispatched deadlines (see
// retune). Both rebuild the calendar in place. None of this can change
// dispatch order, which less alone fixes.
type Engine struct {
	now       Time
	seq       uint64
	processed uint64

	nodes   []node   // slab of queue entries; a queued node never moves
	free    int32    // head of the free-node list
	buckets []bucket // the calendar, len a power of two
	shift   uint     // log2 of the bucket width in picoseconds
	cur     uint64   // day cursor: no pending event's day is below it
	pending int

	// Width sampling: dispatches since the window opened, and the deadline
	// of the dispatch that opened it.
	pops     int
	windowAt Time

	// Path counters (host-side only; tests check the oracle reaches every
	// path): bucket-count doublings and halvings, width changes,
	// direct searches after a full rotation found no event, inserts that
	// walked forward or back from a bucket's finger, and fingers cleared
	// because dispatch removed their node.
	grows, shrinks, widths, searches    int
	fingerFwd, fingerBack, fingerClears int
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	e := &Engine{free: -1, shift: initShift, cur: math.MaxUint64}
	e.setBuckets(minBuckets)
	return e
}

// Reset returns the engine to its post-construction state: clock at zero,
// sequence counter at zero, empty queue. The node slab's capacity and the
// calendar's learned size are retained so a reset engine schedules without
// growing again; any still-queued events are dropped (their callbacks never
// run) and their references released. Reset is the engine-level half of the
// cluster-reuse contract: a reset engine is indistinguishable from a fresh
// one to the simulation, because dispatch order depends only on the
// (at, stamp, pri, seq) keys, which restart identically.
func (e *Engine) Reset() {
	clear(e.nodes) // release call/arg references for the GC
	e.nodes = e.nodes[:0]
	e.free = -1
	e.setBuckets(len(e.buckets))
	e.cur = math.MaxUint64
	e.pending = 0
	e.pops, e.windowAt = 0, 0
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// push queues one event in a free node.
func (e *Engine) push(at, stamp Time, pri, seq uint64, call func(any), arg any) {
	i := e.free
	if i < 0 {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	} else {
		e.free = e.nodes[i].next
	}
	n := &e.nodes[i]
	n.at, n.stamp, n.pri, n.seq, n.call, n.arg = at, stamp, pri, seq, call, arg
	e.insert(i)
	e.pending++
	if e.pending > 2*len(e.buckets) {
		e.grows++
		e.rebuild(2*len(e.buckets), e.shift)
	}
}

// insert links node i into its bucket's sorted list and lowers the cursor
// to its day if needed. New events mostly sort last, so the tail is tried
// first; an event that sorts before the tail is placed by walking from the
// bucket's finger — forward when it does not sort before the finger, back
// from the finger's predecessor otherwise (from the tail's when the bucket
// has no finger). The list is totally ordered by less, so every walk
// reaches the same position.
func (e *Engine) insert(i int32) {
	n := &e.nodes[i]
	day := uint64(n.at) >> e.shift
	if day < e.cur {
		e.cur = day
	}
	b := &e.buckets[day&uint64(len(e.buckets)-1)]
	t := b.tail
	if t >= 0 && n.less(&e.nodes[t]) {
		if f := b.last; f >= 0 && !n.less(&e.nodes[f]) {
			// The tail sorts after n, so the forward walk stops before it.
			e.fingerFwd++
			for nx := e.nodes[f].next; !n.less(&e.nodes[nx]); nx = e.nodes[f].next {
				f = nx
			}
			t = f
		} else {
			if f >= 0 {
				e.fingerBack++
				t = f
			}
			t = e.nodes[t].prev
			for t >= 0 && n.less(&e.nodes[t]) {
				t = e.nodes[t].prev
			}
		}
	}
	n.prev = t
	if t < 0 {
		n.next = b.head
		b.head = i
	} else {
		n.next = e.nodes[t].next
		e.nodes[t].next = i
	}
	if n.next < 0 {
		b.tail = i
	} else {
		e.nodes[n.next].prev = i
		b.last = i
	}
}

// peek returns the node of the earliest pending event, or -1, leaving the
// cursor on its day. It sweeps the cursor forward one day per empty bucket;
// a full rotation without a hit means the next event is more than a year
// (len(buckets) days) ahead, and a direct search over the bucket heads finds
// it instead.
func (e *Engine) peek() int32 {
	if e.pending == 0 {
		return -1
	}
	buckets, nodes, shift, cur := e.buckets, e.nodes, e.shift, e.cur
	mask := uint64(len(buckets) - 1)
	for range buckets {
		if h := buckets[cur&mask].head; h >= 0 && uint64(nodes[h].at)>>shift == cur {
			e.cur = cur
			return h
		}
		cur++
	}
	// Heads of different buckets have different deadlines (equal deadlines
	// share a day), so the earliest head by deadline is the minimum.
	e.searches++
	best := int32(-1)
	for _, b := range e.buckets {
		if b.head >= 0 && (best < 0 || e.nodes[b.head].at < e.nodes[best].at) {
			best = b.head
		}
	}
	e.cur = uint64(e.nodes[best].at) >> e.shift
	return best
}

// dispatch removes node i — the minimum found by peek, so the head of the
// cursor's bucket — runs it, and keeps the calendar tuned.
func (e *Engine) dispatch(i int32) {
	n := &e.nodes[i]
	at, call, arg := n.at, n.call, n.arg
	b := &e.buckets[e.cur&uint64(len(e.buckets)-1)]
	b.head = n.next
	if n.next < 0 {
		b.tail = -1
	} else {
		e.nodes[n.next].prev = -1
	}
	if b.last == i {
		e.fingerClears++
		b.last = -1
	}
	n.call, n.arg = nil, nil // drop references so the GC can reclaim them
	n.next = e.free
	e.free = i
	e.pending--

	e.now = at
	e.processed++
	e.pops++
	if e.pops >= 4*len(e.buckets) {
		e.retune()
	} else if e.pending < len(e.buckets)/2 && len(e.buckets) > minBuckets {
		e.shrinks++
		e.rebuild(len(e.buckets)/2, e.shift)
	}
	call(arg)
}

// retune closes a sampling window. The ideal bucket width is the power of
// two at or above the mean gap between the window's dispatches; the
// calendar is rebuilt to it only when it is more than a factor of two off
// the current width, so a gap hovering at a power of two does not flip the
// width (and rebuild the calendar) window after window.
func (e *Engine) retune() {
	gap := (e.now - e.windowAt) / Time(e.pops)
	e.pops, e.windowAt = 0, e.now
	var shift uint
	if gap > 1 {
		shift = uint(bits.Len64(uint64(gap - 1)))
	}
	if shift > e.shift+1 || shift+1 < e.shift {
		e.widths++
		e.rebuild(len(e.buckets), shift)
	}
}

// rebuild re-files every queued node into a calendar of nb buckets of
// width 1<<shift. The nodes are chained bucket by bucket from the cursor's
// (roughly ascending, so most re-inserts land at a tail), then inserted
// afresh; the cursor restarts at the earliest day.
func (e *Engine) rebuild(nb int, shift uint) {
	head, tail := int32(-1), int32(-1)
	mask := uint64(len(e.buckets) - 1)
	for k := range uint64(len(e.buckets)) {
		b := e.buckets[(e.cur+k)&mask]
		if b.head < 0 {
			continue
		}
		if tail < 0 {
			head = b.head
		} else {
			e.nodes[tail].next = b.head
		}
		tail = b.tail
	}
	e.setBuckets(nb)
	e.shift = shift
	e.cur = math.MaxUint64
	for i := head; i >= 0; {
		next := e.nodes[i].next
		e.insert(i)
		i = next
	}
}

// setBuckets empties the calendar, fingers included, and sizes it to nb
// buckets, reusing the bucket slice's capacity.
func (e *Engine) setBuckets(nb int) {
	if cap(e.buckets) < nb {
		e.buckets = make([]bucket, nb)
	}
	e.buckets = e.buckets[:nb]
	for i := range e.buckets {
		e.buckets[i] = bucket{-1, -1, -1}
	}
}

// checkAt panics on scheduling in the past: it indicates a model bug
// (causality violation), and silently clamping would hide it.
func (e *Engine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// ScheduleCall runs fn(arg) at absolute time at. The callback and its
// argument are stored directly in the queue node, so callers that reuse a
// non-capturing fn (and a pooled or pointer-typed arg) schedule without
// allocating a closure.
func (e *Engine) ScheduleCall(at Time, fn func(any), arg any) {
	e.checkAt(at)
	e.seq++
	e.push(at, e.now, 0, e.seq, fn, arg)
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
	e.push(at, stamp, pri, seq, fn, arg)
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	i := e.peek()
	if i < 0 {
		return false
	}
	e.dispatch(i)
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
	for i := e.peek(); i >= 0 && e.nodes[i].at <= t; i = e.peek() {
		e.dispatch(i)
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
	for i := e.peek(); i >= 0 && e.nodes[i].at < bound; i = e.peek() {
		e.dispatch(i)
	}
}

// NextEventTime returns the deadline of the earliest pending event, and
// whether one exists. Like every queue read it may move the calendar's
// cursor, so it must not run concurrently with the engine (Windows only
// peeks engines that are not running).
func (e *Engine) NextEventTime() (Time, bool) {
	i := e.peek()
	if i < 0 {
		return 0, false
	}
	return e.nodes[i].at, true
}
