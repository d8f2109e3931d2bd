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

// backfillStream replays Fig 7a's 16-byte scatter on one NIC: a packet
// arrives every packet gap (4 KiB at 50 GiB/s) and takes the earliest-free
// of 16 thread contexts (4 HPUs × 4 threads), and its handler issues 256
// blocks, each an 8 ns offset computation and a 1.6 ns DMA issue on the
// 4-server issue pool followed by an 8 ns posted write on the host bus.
// Handlers run one at a time, as payload handlers do, so each chain
// backfills the pool's gaps around the chains before it. The bus paces
// the chains, which keeps the two busiest servers' lists at 2,000–4,096
// spans, as in fig7a.
type backfillStream struct {
	pool    *IntervalPool
	bus     *Intervals
	ctxFree [16]Time
	ctx     int
	packets int
	block   int
	issued  bool // the block's offset computation is placed
	now     Time
}

// step issues the next AcquireAny of the stream.
func (s *backfillStream) step() {
	const (
		packetGap = 4096 * 20 * Picosecond
		arith     = 20 * 400 * Picosecond
		issue     = 4 * 400 * Picosecond
		write     = 8 * Nanosecond
	)
	if !s.issued {
		if s.block == 0 {
			s.ctx = 0
			for c, free := range s.ctxFree {
				if free < s.ctxFree[s.ctx] {
					s.ctx = c
				}
			}
			s.now = max(Time(s.packets)*packetGap, s.ctxFree[s.ctx])
		}
		_, start := s.pool.AcquireAny(s.now, arith)
		s.now, s.issued = start+arith, true
		return
	}
	_, start := s.pool.AcquireAny(s.now, issue)
	s.now = s.bus.Acquire(start+issue, write) + write
	s.issued = false
	if s.block++; s.block == 256 {
		s.ctxFree[s.ctx] = s.now
		s.packets++
		s.block = 0
	}
}

// BenchmarkIntervalPoolBackfill measures one AcquireAny of the HPU issue
// pool in Fig 7a's regime (see backfillStream); every second op also
// places one bus write.
func BenchmarkIntervalPoolBackfill(b *testing.B) {
	s := &backfillStream{pool: NewIntervalPool("hpu", 4, NewEngine()), bus: NewIntervals("bus", NewEngine())}
	for i := 0; i < 1<<18; i++ { // fill the lists past their first prune
		s.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}
