package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
)

// Pool is a persistent queued-task worker pool: n workers, each owning one
// long-lived Env, draining a shared task queue. Sweeps enqueue their points
// and the fixed set of workers executes them, so concurrent sweeps are
// bounded structurally (at most n points ever execute; a Table 5c point
// runs up to two replays at once) and worker Envs amortize cluster
// construction across every run the pool ever serves, not just one sweep.
//
// Determinism is unaffected by which worker dequeues a point: points are
// hermetic under the reset-equals-fresh contract, Env caches key on
// (configuration, impairment), and Sweep.Run merges rows in point order.
// The one thing a pool changes is allocation behaviour — a long-lived Env
// keeps its cluster caches warm across sweeps, which is the service's whole
// economy (see internal/serve).
//
// A pool also remembers the rows it has finished, so a point that any
// sweep asks for again — the 16 B point every fig7a scale keeps, or a size
// two scales of fig3b share — is answered without simulating it. A
// point's row and its fault-counter delta are a pure function of
// (experiment, point key, impairment) under the determinism contract, so
// a remembered result is exactly what running the point again on a warm
// worker's Env would return. The memo holds at most memoCap rows; a
// store into a full memo first forgets every row.
//
// Tasks submitted after Close panic (send on closed channel); owners close
// the pool only after every submitter has finished, which Sweep.Run
// guarantees by waiting for its points before returning.
type Pool struct {
	tasks   chan func(*Env)
	wg      sync.WaitGroup
	workers int

	// queued counts submitted-but-not-yet-started tasks, running the tasks
	// currently executing, completed the lifetime total and reused the
	// points answered from the memo — the service's /stats reads these;
	// they never influence execution.
	queued    atomic.Int64
	running   atomic.Int64
	completed atomic.Uint64
	reused    atomic.Uint64

	// memo maps a finished point to its result, guarded by memoMu.
	memoMu sync.Mutex
	memo   map[pointKey]pointResult
}

// memoCap bounds the rows a Pool remembers, so a long-lived service's memo
// cannot grow without limit. It is far above the roughly 100 distinct
// points one serve-mix round stores.
const memoCap = 4096

// pointKey identifies a finished point: the experiment's table ID, the
// point's Row key and the run's canonical impairment key. The LP count is
// left out: output is byte-identical at any LP.
type pointKey struct{ exp, point, impair string }

// pointResult is a finished point's row and fault-counter delta.
type pointResult struct {
	row    []string
	faults netsim.FaultStats
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
		memo:    make(map[pointKey]pointResult),
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

// recall returns the remembered result for k, counting a reuse when there
// is one. The row is shared with the memo: callers copy it.
func (p *Pool) recall(k pointKey) (pointResult, bool) {
	p.memoMu.Lock()
	r, ok := p.memo[k]
	p.memoMu.Unlock()
	if ok {
		p.reused.Add(1)
	}
	return r, ok
}

// remember stores a successful point's result under k, emptying the memo
// first when it is full. A key already present keeps its entry: two sweeps
// that missed the same point concurrently computed equal results.
func (p *Pool) remember(k pointKey, r pointResult) {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if _, ok := p.memo[k]; ok {
		return
	}
	if len(p.memo) >= memoCap {
		clear(p.memo)
	}
	p.memo[k] = r
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of tasks submitted but not yet started.
func (p *Pool) QueueDepth() int64 { return p.queued.Load() }

// Running returns the number of tasks currently executing.
func (p *Pool) Running() int64 { return p.running.Load() }

// Completed returns the lifetime count of finished tasks: points executed
// on workers.
func (p *Pool) Completed() uint64 { return p.completed.Load() }

// Reused returns the lifetime count of points answered from the memo
// without executing.
func (p *Pool) Reused() uint64 { return p.reused.Load() }

// MemoEntries returns the number of points the memo currently holds.
func (p *Pool) MemoEntries() int {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	return len(p.memo)
}

// Close stops accepting tasks, waits for queued and running ones to finish,
// and releases the workers. Callers must not submit concurrently with or
// after Close.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
