// Package fixture exercises the hotalloc analyzer: step becomes an
// event-dispatch root by being handed to ScheduleCall, so its
// allocation sites — closures, Sprintf, maps, capacity-less appends,
// interface boxing into ScheduleCall arguments and interface fields — are
// reported, while preallocated appends, panic
// arguments, annotated sites, and functions the dispatcher never
// reaches stay silent.
package fixture

import (
	"fmt"

	"repro/internal/sim"
)

type work struct {
	n     int
	eng   *sim.Engine
	trace bool
	label string
	state any
}

// arm hands step to the engine; arm itself is not dispatched, so its own
// body is off the hot path.
func arm(e *sim.Engine, w *work) {
	e.ScheduleCall(0, step, w)
}

func step(arg any) {
	w := arg.(*work)
	labels := map[string]int{"a": 1} // want `map literal allocates on the hot path`
	_ = labels
	m := make(map[int]int) // want `make\(map\) allocates on the hot path`
	_ = m
	msg := fmt.Sprintf("step %d", w.n) // want `fmt\.Sprintf allocates its result on the hot path`
	_ = msg
	var xs []int
	xs = append(xs, w.n) // want `append to xs grows an un-preallocated local slice on the hot path`
	_ = xs
	bump := func() { w.n++ } // want `capturing func literal allocates a closure per event`
	bump()

	// Preallocated ownership: a make with explicit capacity is exempt.
	ys := make([]int, 0, 8)
	ys = append(ys, w.n)
	_ = ys

	// Non-capturing literals cost nothing per event.
	noop := func() {}
	noop()

	// A panicking run has no budget: allocation inside panic arguments is
	// exempt.
	if w.n < 0 {
		panic(fmt.Sprintf("negative event count %d", w.n))
	}

	// Reviewed exception: recording-gated label formatting.
	if w.trace {
		w.label = fmt.Sprintf("ev %d", w.n) //simlint:alloc-ok fixture: recording-gated label, benchmarks run untraced
	}

	// Pointer-shaped values and nil store into an interface field for free.
	w.state = w
	w.state = nil
	w.state = w.n // want `store into interface field state of type int boxes into an interface per event`

	w.eng.ScheduleCall(1, step, w.n) // want `ScheduleCall argument of type int boxes into an interface per event`
}

// install references drain as a value; its func\(any\) signature is the
// pre-bound dispatcher shape, so drain is a root even without an
// explicit ScheduleCall.
func install(hooks *[]func(any)) {
	*hooks = append(*hooks, drain)
}

func drain(arg any) {
	_ = fmt.Sprint(arg) // want `fmt\.Sprint allocates its result on the hot path`
}

// cold is reachable from no dispatch root: its allocations are off the
// hot path and unreported.
func cold() map[string]int {
	return map[string]int{"a": 1}
}
