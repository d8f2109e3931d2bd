package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent queued-task worker pool: n workers, each owning one
// long-lived Env, draining a shared task queue. Sweeps enqueue their points
// and the fixed set of workers executes them, so concurrent sweeps are
// bounded structurally (at most n engines ever execute) and worker Envs
// amortize cluster construction across every run the pool ever serves, not
// just one sweep.
//
// Determinism is unaffected by which worker dequeues a point: points are
// hermetic under the reset-equals-fresh contract, Env caches key on
// (configuration, impairment), and Sweep.Run merges rows in point order.
// The one thing a pool changes is allocation behaviour — a long-lived Env
// keeps its cluster caches warm across sweeps, which is the service's whole
// economy (see internal/serve).
//
// Tasks submitted after Close panic (send on closed channel); owners close
// the pool only after every submitter has finished, which Sweep.Run
// guarantees by waiting for its points before returning.
type Pool struct {
	tasks   chan func(*Env)
	wg      sync.WaitGroup
	workers int

	// queued counts submitted-but-not-yet-started tasks, running the tasks
	// currently executing, completed the lifetime total — the service's
	// /stats reads these; they never influence execution.
	queued    atomic.Int64
	running   atomic.Int64
	completed atomic.Uint64
}

// NewPool starts a pool of n workers (n <= 0 uses GOMAXPROCS), each with
// its own empty Env.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		tasks:   make(chan func(*Env), 4*n),
		workers: n,
	}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			e := NewEnv()
			for fn := range p.tasks {
				p.queued.Add(-1)
				p.running.Add(1)
				fn(e)
				p.running.Add(-1)
				p.completed.Add(1)
			}
		}()
	}
	return p
}

// submit enqueues one task; it blocks when the queue is full (bounded
// backpressure, the queue never grows without bound). The task runs on
// exactly one worker's Env.
func (p *Pool) submit(fn func(*Env)) {
	p.queued.Add(1)
	p.tasks <- fn
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of tasks submitted but not yet started.
func (p *Pool) QueueDepth() int64 { return p.queued.Load() }

// Running returns the number of tasks currently executing.
func (p *Pool) Running() int64 { return p.running.Load() }

// Completed returns the lifetime count of finished tasks.
func (p *Pool) Completed() uint64 { return p.completed.Load() }

// Close stops accepting tasks, waits for queued and running ones to finish,
// and releases the workers. Callers must not submit concurrently with or
// after Close.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
