package sim

import "testing"

// BenchmarkEngineSchedule measures the steady-state cost of one
// schedule+dispatch cycle: the dominant per-event overhead of every
// simulation in the repo. The queue is pre-filled so heap operations touch
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
