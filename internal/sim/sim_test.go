package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// runFunc dispatches a closure carried as the event argument (a func value
// is pointer-shaped, so boxing it allocates nothing). Tests use it where a
// capturing closure reads better than a pre-bound callback.
func runFunc(a any) { a.(func())() }

// after schedules fn d picoseconds after e's current time.
func after(e *Engine, d Time, fn func()) { e.ScheduleCall(e.Now()+d, runFunc, fn) }

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.ScheduleCall(at, runFunc, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleCall(100, runFunc, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.ScheduleCall(10, runFunc, func() {
		trace = append(trace, "a")
		after(e, 5, func() { trace = append(trace, "c") })
		e.ScheduleCall(12, runFunc, func() { trace = append(trace, "b") })
	})
	end := e.Run()
	if end != 15 {
		t.Fatalf("final time %v, want 15", end)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(100, runFunc, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleCall(50, runFunc, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleCall(10, runFunc, func() { fired++ })
	e.ScheduleCall(30, runFunc, func() { fired++ })
	e.RunUntil(20)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.Run()
	if fired != 2 || e.Now() != 30 {
		t.Fatalf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var got []Time
		var rec func(depth int)
		rec = func(depth int) {
			got = append(got, e.Now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					after(e, Time(rng.Intn(100)+1), func() { rec(depth + 1) })
				}
			}
		}
		for i := 0; i < 5; i++ {
			e.ScheduleCall(Time(rng.Intn(1000)), runFunc, func() { rec(0) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEngineResetMatchesFresh pins the cluster-reuse contract at the engine
// level: after Reset, a reused engine must schedule and dispatch a workload
// with exactly the trajectory a fresh engine gives it — same visit times,
// same tie-break order — and drop any still-queued events.
func TestEngineResetMatchesFresh(t *testing.T) {
	workload := func(e *Engine) []Time {
		var got []Time
		for i := 0; i < 4; i++ {
			e.ScheduleCall(Time(10), runFunc, func() { got = append(got, e.Now()) }) // ties: FIFO
		}
		after(e, 5, func() {
			got = append(got, e.Now())
			after(e, 20, func() { got = append(got, e.Now()) })
		})
		e.Run()
		return got
	}
	fresh := NewEngine()
	want := workload(fresh)

	reused := NewEngine()
	workload(reused)
	reused.ScheduleCall(reused.Now()+100, runFunc, func() { t.Fatal("event survived Reset") })
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Processed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d processed=%d, want all zero",
			reused.Now(), reused.Pending(), reused.Processed())
	}
	got := workload(reused)
	if len(got) != len(want) {
		t.Fatalf("event counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v on reused engine, %v on fresh", i, got[i], want[i])
		}
	}
}

// Property: for any set of deadlines, execution visits them in sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, r := range raw {
			at := Time(r)
			e.ScheduleCall(at, runFunc, func() { got = append(got, e.Now()) })
		}
		e.Run()
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleCallPassesArg(t *testing.T) {
	e := NewEngine()
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	e.ScheduleCall(20, fn, 2)
	e.ScheduleCall(10, fn, 1)
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

// TestReserveSeqPreservesEagerOrder checks the deferred-scheduling contract:
// events scheduled lazily with reserved sequence numbers tie-break exactly
// as if they had been scheduled eagerly at reservation time.
func TestReserveSeqPreservesEagerOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	// Reserve positions for two lazy events first...
	base := e.ReserveSeq(2)
	// ...then schedule a competitor at the same instant. Without the
	// reservation it would fire first (earlier seq).
	e.ScheduleCall(100, runFunc, func() { order = append(order, "late") })
	e.ScheduleCallSeq(100, e.Now(), 0, base, func(a any) {
		order = append(order, "first")
		// The second reserved slot is claimed from inside the first event,
		// still beating the competitor at the same deadline. The stamp is
		// the reservation-time clock (0), not the current clock, exactly as
		// the deferred-scheduling contract requires.
		e.ScheduleCallSeq(100, 0, 0, base+1, func(any) { order = append(order, "second") }, nil)
	}, nil)
	e.Run()
	want := []string{"first", "second", "late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSteadyStateSchedulingAllocatesNothing pins the zero-allocation hot
// path: once the heap slice has grown, schedule+dispatch cycles must not
// allocate.
func TestSteadyStateSchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine()
	call := func(any) {}
	var arg *Engine // pointer arg: no boxing
	for i := 0; i < 256; i++ {
		e.ScheduleCall(Time(i), call, arg)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now()+5, call, arg)
		e.ScheduleCallSeq(e.Now()+3, e.Now(), 1, e.ReserveSeq(1), call, arg)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %.1f objects per cycle", allocs)
	}
}

func TestScheduleCallSeqPastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(100, runFunc, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCallSeq in the past did not panic")
		}
	}()
	e.ScheduleCallSeq(50, e.Now(), 0, e.ReserveSeq(1), func(any) {}, nil)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Nanosecond).Microseconds() != 1.5 {
		t.Error("Microseconds conversion wrong")
	}
	if (2500 * Picosecond).Nanoseconds() != 2.5 {
		t.Error("Nanoseconds conversion wrong")
	}
	if (500 * Millisecond).Seconds() != 0.5 {
		t.Error("Seconds conversion wrong")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("link")
	s1 := r.Acquire(0, 100)
	s2 := r.Acquire(0, 100)
	s3 := r.Acquire(250, 100)
	if s1 != 0 || s2 != 100 || s3 != 250 {
		t.Fatalf("starts = %v %v %v, want 0 100 250", s1, s2, s3)
	}
	if r.FreeAt() != 350 {
		t.Fatalf("FreeAt = %v, want 350", r.FreeAt())
	}
	if r.Busy != 300 {
		t.Fatalf("Busy = %v, want 300", r.Busy)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("bus")
	r.Acquire(0, 250)
	if u := r.Utilization(1000); u != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
}

func TestPoolPrefersEarliestServer(t *testing.T) {
	p := NewPool("hpu", 2)
	i0, s0 := p.AcquireAny(0, 100)
	i1, s1 := p.AcquireAny(0, 50)
	i2, s2 := p.AcquireAny(0, 10)
	if i0 != 0 || s0 != 0 {
		t.Fatalf("first acquire: idx=%d start=%v", i0, s0)
	}
	if i1 != 1 || s1 != 0 {
		t.Fatalf("second acquire should use idle server 1: idx=%d start=%v", i1, s1)
	}
	// server 1 frees at 50, earlier than server 0 at 100.
	if i2 != 1 || s2 != 50 {
		t.Fatalf("third acquire: idx=%d start=%v, want 1 at 50", i2, s2)
	}
}

func TestPoolAcquireBeforeDeadline(t *testing.T) {
	p := NewPool("hpu", 1)
	p.AcquireAny(0, 1000)
	if _, _, ok := p.AcquireAnyBefore(0, 10, 500); ok {
		t.Fatal("acquire should fail: server busy past deadline")
	}
	if _, start, ok := p.AcquireAnyBefore(0, 10, 1000); !ok || start != 1000 {
		t.Fatalf("acquire at deadline: ok=%v start=%v", ok, start)
	}
}

func TestPoolExtendReservation(t *testing.T) {
	p := NewPool("hpu", 1)
	idx, _ := p.AcquireAny(0, 0)
	p.ExtendReservation(idx, 500)
	if p.FreeAt() != 500 {
		t.Fatalf("FreeAt = %v, want 500", p.FreeAt())
	}
	p.ExtendReservation(idx, 200) // shrinking is a no-op
	if p.FreeAt() != 500 {
		t.Fatalf("FreeAt after shrink attempt = %v, want 500", p.FreeAt())
	}
	if p.Server(idx).Busy != 500 {
		t.Fatalf("Busy = %v, want 500", p.Server(idx).Busy)
	}
}

// Property: a unit resource never overlaps reservations and never loses time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(spans []uint8) bool {
		r := NewResource("x")
		prevEnd := Time(0)
		for _, sp := range spans {
			occ := Time(sp)
			start := r.Acquire(0, occ)
			if start < prevEnd {
				return false
			}
			prevEnd = start + occ
		}
		return r.FreeAt() == prevEnd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool("bad", 0)
}
