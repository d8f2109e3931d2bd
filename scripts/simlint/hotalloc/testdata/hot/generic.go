package fixture

import "repro/internal/sim"

// stack is a generic pool in the shape of sim.FreeList. A call on one of
// its instantiations must lead the call graph to the generic method's
// declared body, so an allocation there is reported like any other.
type stack[T any] struct {
	free []*T
	seen map[*T]bool
}

func (s *stack[T]) put(p *T) {
	s.seen = make(map[*T]bool) // want `make\(map\) allocates on the hot path`
	s.free = append(s.free, p)
}

type job struct{ pool *stack[job] }

func armJob(e *sim.Engine, j *job) {
	e.ScheduleCall(0, runJob, j)
}

func runJob(arg any) {
	j := arg.(*job)
	j.pool.put(j)
}
