package portals

import (
	"sort"

	"repro/internal/sim"
)

// EventType enumerates full-event kinds.
type EventType int

const (
	// EventPut signals a completed put at the target.
	EventPut EventType = iota
	// EventPutOverflow signals a put that matched the overflow list
	// (unexpected message).
	EventPutOverflow
	// EventGet signals a completed get at the target.
	EventGet
	// EventAtomic signals a completed atomic at the target.
	EventAtomic
	// EventReply signals a get reply landed at the initiator.
	EventReply
	// EventAck signals a put acknowledgment at the initiator.
	EventAck
	// EventSend signals send-side completion of a put.
	EventSend
	// EventError signals a handler or protocol error.
	EventError
	// EventDropped signals packets dropped by flow control.
	EventDropped
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "PUT"
	case EventPutOverflow:
		return "PUT_OVERFLOW"
	case EventGet:
		return "GET"
	case EventAtomic:
		return "ATOMIC"
	case EventReply:
		return "REPLY"
	case EventAck:
		return "ACK"
	case EventSend:
		return "SEND"
	case EventError:
		return "ERROR"
	case EventDropped:
		return "DROPPED"
	}
	return "UNKNOWN"
}

// Event is one full event.
type Event struct {
	Type         EventType
	At           sim.Time // when the event became visible to the host
	ME           *ME
	Source       int
	MatchBits    uint64
	HdrData      uint64
	Length       int
	Offset       int64 // where the message landed in the ME
	DroppedBytes int
	FlowControl  bool
	Err          error
}

// EQ is an event queue. Events become visible at their At time. Without an
// OnEvent handler the queue stores each event for Events and PollUpTo. With
// one, the handler is the host consuming the queue (sPIN, arXiv
// 1709.05483): each event is dispatched to it through the engine, so
// ordering is consistent, and nothing is stored, so Events and PollUpTo see
// only the events appended while no handler was set.
type EQ struct {
	eng     *sim.Engine
	events  []Event
	handler func(Event)

	// noteFree recycles the pre-bound dispatch records Append schedules in
	// place of per-event closures.
	noteFree sim.FreeList[eqNote]
}

// eqNote carries one OnEvent dispatch through the engine: the handler and
// the event are bound at Append time (matching the closure semantics this
// replaces) and the note is recycled when it fires.
type eqNote struct {
	q  *EQ
	h  func(Event)
	ev Event
}

// runEQNote is the ScheduleCall entry point for OnEvent dispatches.
func runEQNote(a any) {
	n := a.(*eqNote)
	q, h, ev := n.q, n.h, n.ev
	q.noteFree.Put(n)
	h(ev)
}

// NewEQ allocates an event queue on the engine.
func NewEQ(eng *sim.Engine) *EQ { return &EQ{eng: eng} }

// Append stores an event, or, with an OnEvent handler installed,
// dispatches the handler at ev.At and stores nothing.
func (q *EQ) Append(ev Event) {
	if q.handler == nil {
		q.events = append(q.events, ev)
		return
	}
	n := q.noteFree.Get()
	n.q, n.h, n.ev = q, q.handler, ev
	at := ev.At
	if now := q.eng.Now(); at < now {
		at = now
	}
	q.eng.ScheduleCall(at, runEQNote, n)
}

// OnEvent installs the callback invoked for each appended event; from then
// on the queue stores no events.
func (q *EQ) OnEvent(fn func(Event)) { q.handler = fn }

// Reset discards all queued events while retaining the OnEvent handler and
// the slice's capacity, returning the queue to its post-setup state for
// system reuse. Handler dispatches already scheduled on the engine are the
// engine's to drop (sim.Engine.Reset).
func (q *EQ) Reset() {
	clear(q.events) // release Err/ME references
	q.events = q.events[:0]
}

// recycle returns the queue to its post-construction state for reissue by
// NI.NewEQ: unlike Reset, the OnEvent handler is dropped too. Storage
// (events, dispatch notes) keeps its capacity.
func (q *EQ) recycle() {
	q.Reset()
	q.handler = nil
}

// Events returns the events appended so far while no OnEvent handler was
// set (test/diagnostic use).
func (q *EQ) Events() []Event { return q.events }

// PollUpTo returns the stored events visible at or before now, in
// visibility order: those appended while no OnEvent handler was set.
func (q *EQ) PollUpTo(now sim.Time) []Event {
	var out []Event
	for _, ev := range q.events {
		if ev.At <= now {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// trigger is one armed threshold action on a counter (OnReachCall), stored
// by value so arming on the hot path allocates nothing.
type trigger struct {
	threshold uint64
	call      func(any)
	arg       any
}

// CT is a counting event (§3.1): a success counter with threshold triggers,
// the mechanism behind Portals 4 triggered operations.
type CT struct {
	eng      *sim.Engine
	count    uint64
	failures uint64
	triggers []trigger
}

// NewCT allocates a counter on the engine.
func NewCT(eng *sim.Engine) *CT { return &CT{eng: eng} }

// Reset returns the counter to its post-construction state: zero counts
// and no armed triggers. Triggers installed at setup time must be re-armed
// by their owner after a reset; the reusable systems (raidsim) arm theirs
// per operation, so for them reset equals reconstruction.
func (ct *CT) Reset() {
	ct.count = 0
	ct.failures = 0
	clear(ct.triggers)
	ct.triggers = ct.triggers[:0]
}

// Get returns the current success count.
func (ct *CT) Get() uint64 { return ct.count }

// Failures returns the failure count.
func (ct *CT) Failures() uint64 { return ct.failures }

// Set overwrites the counter (PtlCTSet) and fires any newly reached
// triggers.
func (ct *CT) Set(now sim.Time, v uint64) {
	ct.count = v
	ct.fire(now)
}

// Inc adds n successes (PtlCTInc) and fires any newly reached triggers.
func (ct *CT) Inc(now sim.Time, n uint64) {
	ct.count += n
	ct.fire(now)
}

// IncFailure records a failure.
func (ct *CT) IncFailure(now sim.Time) { ct.failures++ }

// OnReachCall arms fn(arg) to run once through the engine when the counter
// reaches threshold: the pre-bound pair is scheduled with
// sim.Engine.ScheduleCall at the instant the threshold trips, so the action
// always runs as its own event, never inline, and reads the time from the
// engine. If the threshold has already been reached the action fires as the
// next event at the current instant. Arming and firing draw no heap
// allocation (triggers are stored by value).
func (ct *CT) OnReachCall(threshold uint64, fn func(any), arg any) {
	if ct.count >= threshold {
		ct.eng.ScheduleCall(ct.eng.Now(), fn, arg)
		return
	}
	ct.triggers = append(ct.triggers, trigger{threshold: threshold, call: fn, arg: arg})
}

// fire schedules every newly reached trigger in arm order and compacts the
// armed list in place (preserving relative order, so simultaneous future
// firings keep their deterministic sequence). Fired triggers leave the list
// immediately, which keeps the scan O(live triggers) for workloads that arm
// monotonically increasing thresholds (raidsim's per-write acks).
func (ct *CT) fire(now sim.Time) {
	kept := ct.triggers[:0]
	for _, tr := range ct.triggers {
		if ct.count >= tr.threshold {
			ct.eng.ScheduleCall(now, tr.call, tr.arg)
		} else {
			kept = append(kept, tr)
		}
	}
	clear(ct.triggers[len(kept):])
	ct.triggers = kept
}
