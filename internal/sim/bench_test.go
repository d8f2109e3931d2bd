package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule measures the steady-state cost of one
// schedule+dispatch cycle: the dominant per-event overhead of every
// simulation in the repo. The queue is pre-filled so queue operations touch
// realistic depths.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 1024; i++ {
		e.ScheduleCall(Time(i), fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(e.Now()+Time(i%64)+1, fn, nil)
		e.Step()
	}
}

// BenchmarkEngineHold is the classic hold model, the same queue probe the
// benchmark module runs (sim.hold_ns.q64/q4096): every dispatch schedules
// one event 1–1000 ns later, so the pending depth stays at q while each op
// is one Step plus one ScheduleCall.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{4, 64, 4096} {
		b.Run(fmt.Sprintf("q%d", depth), func(b *testing.B) {
			e := NewEngine()
			rng := rand.New(rand.NewSource(7))
			deltas := make([]Time, 1024)
			for i := range deltas {
				deltas[i] = Time(1+rng.Intn(1000)) * Nanosecond
			}
			k := 0
			var hold func(any)
			hold = func(any) {
				k++
				e.ScheduleCall(e.Now()+deltas[k&1023], hold, nil)
			}
			for i := 0; i < depth; i++ {
				e.ScheduleCall(deltas[i&1023], hold, nil)
			}
			for i := 0; i < 1<<17; i++ { // settle the calendar's size and width
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkPoolAcquire measures the earliest-server scan of Pool, which runs
// once per handler invocation (HPU context admission) and once per posted
// message (host-core selection).
func BenchmarkPoolAcquire(b *testing.B) {
	p := NewPool("bench", 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AcquireAny(Time(i), 10)
	}
}
