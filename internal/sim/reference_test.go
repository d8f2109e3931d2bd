package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEngine is the test-only reference model of Engine: the simplest
// possible discrete-event engine — closures on a container/heap priority
// queue ordered by (at, stamp, pri, seq) — against which the specialized
// 4-ary heap of pre-bound events is fuzzed. It mirrors Engine's method set
// so one program can drive both.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

type refEvent struct {
	at, stamp Time
	pri, seq  uint64
	fn        func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
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
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.q) }

// Schedule is the closure form of ScheduleCall.
func (r *refEngine) Schedule(at Time, fn func()) {
	r.seq++
	r.ScheduleSeq(at, r.now, 0, r.seq, fn)
}

func (r *refEngine) ReserveSeq(n int) uint64 {
	first := r.seq + 1
	r.seq += uint64(n)
	return first
}

// ScheduleSeq is the closure form of ScheduleCallSeq.
func (r *refEngine) ScheduleSeq(at, stamp Time, pri, seq uint64, fn func()) {
	if at < r.now {
		panic(fmt.Sprintf("ref: schedule at %v before now %v", at, r.now))
	}
	heap.Push(&r.q, refEvent{at: at, stamp: stamp, pri: pri, seq: seq, fn: fn})
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := heap.Pop(&r.q).(refEvent)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) Run() Time {
	for r.Step() {
	}
	return r.now
}

func (r *refEngine) RunUntil(t Time) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.Step()
	}
	if t > r.now {
		r.now = t
	}
}

func (r *refEngine) RunBefore(bound Time) {
	for len(r.q) > 0 && r.q[0].at < bound {
		r.Step()
	}
}

func (r *refEngine) Reset() { *r = refEngine{} }

// oracleEngine is the method set the oracle runner shares between Engine
// and refEngine; the two scheduling calls differ in callback shape and are
// bound separately (oracleRunner.sched/schedSeq).
type oracleEngine interface {
	Now() Time
	Pending() int
	ReserveSeq(n int) uint64
	Step() bool
	Run() Time
	RunUntil(t Time)
	RunBefore(bound Time)
	Reset()
}

// oracleRunner interprets fuzz bytes as an engine program. Decisions are
// read from the input online — top-level operations between runs, and
// nested scheduling from inside event dispatch — so two engines that
// dispatch in the same order consume the input identically, and the first
// divergent dispatch shows up in the trace.
type oracleRunner struct {
	in       []byte
	pos      int
	eng      oracleEngine
	sched    func(at Time, fn func())
	schedSeq func(at, stamp Time, pri, seq uint64, fn func())
	nextID   int
	resv     []reservation
	trace    []traceRec
}

// reservation is a block of sequence numbers claimed by ReserveSeq and not
// yet scheduled, with the reservation-time stamp and priority key every
// deferred ScheduleCallSeq of the block must carry.
type reservation struct {
	stamp     Time
	pri       uint64
	next, end uint64
}

// traceRec is one dispatch (id >= 0) or one post-operation checkpoint
// (id == -1).
type traceRec struct {
	id      int
	now     Time
	pending int
}

const (
	oracleMaxInput  = 2048 // bytes interpreted per program
	oracleMaxEvents = 4096 // scheduling stops past this many events
)

func (d *oracleRunner) byte() byte {
	if d.pos >= len(d.in) {
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// delta draws a small non-negative offset: narrow ranges make equal
// deadlines — and so the stamp/pri/seq tie-breaks — common.
func (d *oracleRunner) delta(n byte) Time { return Time(d.byte() % n) }

func (d *oracleRunner) event() func() {
	id := d.nextID
	d.nextID++
	return func() { d.fire(id) }
}

func (d *oracleRunner) schedule(at Time) {
	if d.nextID < oracleMaxEvents {
		d.sched(at, d.event())
	}
}

// reserve claims a block of 1..4 sequence numbers at the current clock.
func (d *oracleRunner) reserve() {
	n := 1 + int(d.byte()%4)
	first := d.eng.ReserveSeq(n)
	d.resv = append(d.resv, reservation{
		stamp: d.eng.Now(), pri: uint64(d.byte() % 4),
		next: first, end: first + uint64(n),
	})
}

// scheduleDeferred schedules the next unscheduled slot of one open
// reservation, with that reservation's stamp and priority key.
func (d *oracleRunner) scheduleDeferred() {
	if len(d.resv) == 0 || d.nextID >= oracleMaxEvents {
		return
	}
	k := int(d.byte()) % len(d.resv)
	r := &d.resv[k]
	d.schedSeq(d.eng.Now()+d.delta(8), r.stamp, r.pri, r.next, d.event())
	r.next++
	if r.next == r.end {
		d.resv = append(d.resv[:k], d.resv[k+1:]...)
	}
}

// fire records one dispatch and lets the event schedule more events.
func (d *oracleRunner) fire(id int) {
	now := d.eng.Now()
	d.trace = append(d.trace, traceRec{id: id, now: now, pending: d.eng.Pending()})
	switch d.byte() % 5 {
	case 1:
		d.schedule(now + d.delta(8))
	case 2:
		d.scheduleDeferred()
	case 3:
		d.reserve()
		d.scheduleDeferred()
	case 4:
		d.schedule(now + d.delta(4))
		d.schedule(now + d.delta(4))
	}
}

func (d *oracleRunner) checkpoint() {
	d.trace = append(d.trace, traceRec{id: -1, now: d.eng.Now(), pending: d.eng.Pending()})
}

// run interprets the whole program and returns the trace.
func (d *oracleRunner) run() []traceRec {
	if len(d.in) > oracleMaxInput {
		d.in = d.in[:oracleMaxInput]
	}
	for d.pos < len(d.in) {
		now := d.eng.Now()
		switch d.byte() % 8 {
		case 0, 1:
			d.schedule(now + d.delta(16))
		case 2:
			d.reserve()
		case 3:
			d.scheduleDeferred()
		case 4:
			d.eng.RunUntil(now + d.delta(32))
		case 5:
			d.eng.RunBefore(now + d.delta(32))
		case 6:
			d.eng.Step()
		case 7:
			// Reset drops queued events and restarts the sequence counter,
			// so open reservations die with it.
			d.eng.Reset()
			d.resv = d.resv[:0]
		}
		d.checkpoint()
	}
	d.eng.Run()
	d.checkpoint()
	return d.trace
}

// runOracle runs program on Engine and on refEngine and returns both traces.
func runOracle(program []byte) (got, want []traceRec) {
	e := NewEngine()
	fast := &oracleRunner{in: program, eng: e,
		sched: func(at Time, fn func()) { e.ScheduleCall(at, runFunc, fn) },
		schedSeq: func(at, stamp Time, pri, seq uint64, fn func()) {
			e.ScheduleCallSeq(at, stamp, pri, seq, runFunc, fn)
		},
	}
	r := &refEngine{}
	ref := &oracleRunner{in: program, eng: r, sched: r.Schedule, schedSeq: r.ScheduleSeq}
	return fast.run(), ref.run()
}

// FuzzEngineMatchesReference checks the optimized engine against the
// closure reference model on random programs of ScheduleCall, ReserveSeq
// plus deferred ScheduleCallSeq (reservation-time stamp, random priority),
// events that schedule more events from inside their dispatch,
// RunUntil/RunBefore/Step, and Reset. Every dispatch (event id, Now,
// Pending) and every post-operation checkpoint must match exactly — the
// full (at, stamp, pri, seq) tie-break order, not just sorted times. The
// seed corpus lives in testdata/fuzz/FuzzEngineMatchesReference.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		got, want := runOracle(program)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at record %d: engine %+v, reference %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trace lengths differ: engine %d records, reference %d", len(got), len(want))
		}
	})
}

// TestReferenceOracleExercisesTieBreaks pins that the oracle is not
// vacuous: a fixed pseudo-random program must dispatch a healthy number of
// events, many at the same instant as their predecessor, where only the
// stamp/pri/seq tie-break decides the order the fuzz target compares.
func TestReferenceOracleExercisesTieBreaks(t *testing.T) {
	program := make([]byte, 512)
	x := uint32(12345)
	for i := range program {
		x = x*1664525 + 1013904223
		program[i] = byte(x >> 24)
	}
	got, _ := runOracle(program)
	dispatched, ties := 0, 0
	var prev Time = -1
	for _, rec := range got {
		if rec.id < 0 {
			continue
		}
		dispatched++
		if rec.now == prev {
			ties++
		}
		prev = rec.now
	}
	if dispatched < 50 || ties < 10 {
		t.Fatalf("program dispatched %d events with %d same-instant successors; want >= 50 and >= 10", dispatched, ties)
	}
}
