package bench

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fattree"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/raidsim"
	"repro/internal/timeline"
)

// Env is one sweep worker's reusable simulation environment and the only
// way the harness gets a simulated system. Building a cluster (nodes,
// resources, Portals NIs, HPU pools) costs far more allocations than
// simulating a measurement point on it, so Env caches one cluster per
// distinct (size, parameters) configuration and returns it Reset — back in
// its post-construction state — for every subsequent point that asks for
// the same configuration. Clusters produce bit-identical simulated times
// whether fresh or reset (see netsim.Cluster.Reset), which is what keeps
// sweep output byte-identical to the build-per-point path.
//
// A fresh Env (freshEnv) builds a new system for every request instead:
// the new system replaces the cached one once the old one's fault counters
// are harvested. It backs the Fresh sweep shape — the from-scratch baseline
// the determinism goldens compare against — and the exported single-point
// helpers (PingPongHalfRTT, BroadcastTime, ...).
//
// An Env must only ever be used from one goroutine: every engine is
// single-threaded by design (determinism), and the sweep runner gives each
// worker its own Env. An engine the Env has handed out may run on a
// goroutine the point starts, if the point joins it before it uses the
// Env again: RunApp fetches and Resets both of a program set's engines,
// replays one on a goroutine of its own while the caller replays the
// other, and joins before it returns.
type Env struct {
	clusters map[envKey]*envCluster
	// mpis and raids extend the same caching to the two trace-replay
	// engines, which own their clusters and carry protocol state of their
	// own: they are returned Reset (mpisim.Engine.Reset /
	// raidsim.System.Reset) under the same reset-equals-fresh contract.
	mpis  map[mpiKey]*mpisim.Engine
	raids map[raidKey]*raidsim.System
	// kids is the grow-only arena binomialKids carves child lists from,
	// rewound by resetScratch at the start of each measurement point that
	// uses it.
	kids []int
	// mes and mesOff form the matching-entry arena behind allocME.
	mes    []portals.ME
	mesOff int
	// progs is the grow-only program buffer the Table 5c replays build rank
	// programs into (apps.App.ProgramsInto), so a sweep constructs op
	// slices once per worker instead of once per replay.
	progs *mpisim.ProgramBuffer

	// impair is the run's fault model (nil = perfect network): every mpisim
	// engine this Env hands out carries it, and experiments pass it to
	// their cluster and raidsim requests. Each system's model joins its
	// cache key — an impaired system must never be reused for an
	// unimpaired point or vice versa — and survives Reset, so reuse replays
	// the exact same fault schedule. Two requests pass another model:
	// ftbcast substitutes its built-in schedule when the run has none, and
	// spc's trace replays ask for unimpaired raidsim systems, because the
	// storage service has no recovery layer and a lost packet would only
	// wedge a replay.
	impair *netsim.Impairment
	// lp is the logical-process count requested for mpisim replays (0 or 1 =
	// serial). Like impair it joins the mpisim cache key: a partitioned
	// engine must never be reused for a serial point or vice versa. Output
	// is byte-identical at any lp, so it never needs to join envKey —
	// portals-based clusters always run serially.
	lp int
	// fresh makes every request build a new system (see freshEnv).
	fresh bool
	// rec, when non-nil, is attached to every cluster and raidsim system
	// this Env builds, so cmd/spintrace can render the Appendix C style
	// activity diagrams (see the Trace* functions).
	rec *timeline.Recorder
	// faultAcc accumulates fault counters harvested from cached systems
	// just before each Reset or replacement wipes them; FaultStats adds the
	// live ones.
	faultAcc netsim.FaultStats
}

// envKey identifies a cluster configuration by value. netsim.Params is
// comparable except for the topology pointer, which is dereferenced so two
// Params that describe the same fat tree share a cached cluster even when
// built by separate netsim.Integrated()/Discrete() calls.
type envKey struct {
	n      int
	p      netsim.Params // Topo cleared; represented by topo below
	topo   fattree.Topology
	impair string // canonical impairment key (netsim.Impairment.Key)
}

type envCluster struct {
	c   *netsim.Cluster
	nis []*portals.NI
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		clusters: make(map[envKey]*envCluster),
		mpis:     make(map[mpiKey]*mpisim.Engine),
		raids:    make(map[raidKey]*raidsim.System),
	}
}

// freshEnv returns an Env on which every request builds a new system, with
// rec (nil = none) attached to each cluster and raidsim system it builds.
func freshEnv(rec *timeline.Recorder) *Env {
	e := NewEnv()
	e.fresh = true
	e.rec = rec
	return e
}

// cluster returns a cluster of n nodes with parameters p and the fault
// model im installed (nil = perfect network), plus its Portals interfaces.
// The first request for a configuration (and every request on a fresh Env)
// builds one; afterwards the cached cluster is returned reset.
func (e *Env) cluster(n int, p netsim.Params, im *netsim.Impairment) (*netsim.Cluster, []*portals.NI, error) {
	k := envKey{n: n, p: p, topo: *p.Topo, impair: im.Key()}
	k.p.Topo = nil
	if ec, ok := e.clusters[k]; ok {
		e.faultAcc.Add(ec.c.Faults)
		if !e.fresh {
			ec.c.Reset()
			for _, ni := range ec.nis {
				ni.Reset()
			}
			return ec.c, ec.nis, nil
		}
	}
	c, err := netsim.NewCluster(n, p)
	if err != nil {
		return nil, nil, err
	}
	c.SetImpairment(im)
	c.Rec = e.rec
	ec := &envCluster{c: c, nis: portals.Setup(c)}
	e.clusters[k] = ec
	return ec.c, ec.nis, nil
}

// FaultStats returns every injected-fault and recovery counter this Env has
// seen: the accumulator of counters harvested before cache resets and
// replacements plus the live counters of cached systems. Sums are
// commutative, so the result is independent of map iteration order.
func (e *Env) FaultStats() netsim.FaultStats {
	s := e.faultAcc
	for _, ec := range e.clusters { //simlint:unordered-ok commutative counter sums; result independent of iteration order
		s.Add(ec.c.Faults)
	}
	for _, eng := range e.mpis { //simlint:unordered-ok commutative counter sums; result independent of iteration order
		s.Add(eng.C.Faults)
	}
	for _, sys := range e.raids { //simlint:unordered-ok commutative counter sums; result independent of iteration order
		s.Add(sys.C.Faults)
	}
	return s
}

// mpiKey identifies an mpisim engine configuration by value: rank count,
// matching mode (every replay runs mpisim.DefaultConfig of its mode), and
// the Env's impairment and logical-process count.
type mpiKey struct {
	n      int
	mode   mpisim.MatchMode
	impair string // canonical impairment key (netsim.Impairment.Key)
	lp     int    // logical-process count (0/1 = serial)
}

// mpiEngine returns a replay engine for mpisim.DefaultConfig(mode) under the
// Env's impairment and LP count, primed with the given rank programs. The
// first request for a configuration, and every request on a fresh Env, build
// one; otherwise the cached engine for (rank count, configuration) is
// returned Reset for the new program set — the replay-engine analogue of
// cluster.
func (e *Env) mpiEngine(mode mpisim.MatchMode, progs [][]mpisim.Op) (*mpisim.Engine, error) {
	k := mpiKey{n: len(progs), mode: mode, impair: e.impair.Key(), lp: e.lp}
	if eng, ok := e.mpis[k]; ok {
		e.faultAcc.Add(eng.C.Faults)
		if !e.fresh {
			if err := eng.Reset(progs); err != nil {
				return nil, err
			}
			return eng, nil
		}
	}
	cfg := mpisim.DefaultConfig(mode)
	cfg.Impair = e.impair // retry defaults are filled in by mpisim.New
	cfg.LP = e.lp
	eng, err := mpisim.New(cfg, progs)
	if err != nil {
		return nil, err
	}
	e.mpis[k] = eng
	return eng, nil
}

// mpiRunner adapts mpiEngine to the program-set runner apps.Calibrate and
// RunApp consume: every invocation replays on the same cached engine.
func (e *Env) mpiRunner(mode mpisim.MatchMode) func(progs [][]mpisim.Op) (mpisim.Result, error) {
	return func(progs [][]mpisim.Op) (mpisim.Result, error) {
		eng, err := e.mpiEngine(mode, progs)
		if err != nil {
			return mpisim.Result{}, err
		}
		return eng.Run()
	}
}

// raidKey identifies a RAID system configuration by value (same topology
// and impairment treatment as envKey).
type raidKey struct {
	p      netsim.Params // Topo cleared; represented by topo below
	topo   fattree.Topology
	spin   bool
	impair string // canonical impairment key (netsim.Impairment.Key)
}

// raidSystem returns a RAID-5 service for (p, spin) with the fault model im
// installed (nil = perfect network). The first request for a configuration
// (and every request on a fresh Env) builds one; afterwards the cached
// system is returned Reset, ready for its next update or trace replay.
func (e *Env) raidSystem(p netsim.Params, spin bool, im *netsim.Impairment) (*raidsim.System, error) {
	k := raidKey{p: p, topo: *p.Topo, spin: spin, impair: im.Key()}
	k.p.Topo = nil
	if sys, ok := e.raids[k]; ok {
		e.faultAcc.Add(sys.C.Faults)
		if !e.fresh {
			sys.Reset()
			return sys, nil
		}
	}
	sys, err := raidsim.New(p, spin)
	if err != nil {
		return nil, err
	}
	sys.C.SetImpairment(im)
	sys.C.Rec = e.rec
	e.raids[k] = sys
	return sys, nil
}

// resetScratch rewinds the Env's point-scoped arenas (binomialKids lists
// and allocME entries). Experiments that draw from either arena call it
// once at the start of each measurement point; lists and entries carved
// before the rewind must no longer be in use.
func (e *Env) resetScratch() {
	e.kids = e.kids[:0]
	e.mesOff = 0
}

// allocME returns a zeroed matching entry from the Env's grow-only arena.
// Entries are valid for the current measurement point: rewinding the arena
// reuses their slots, which is safe because the only references that
// outlive a point live in portal-table lists of Env-cached clusters, and
// those lists are truncated (without dereferencing the entries) by the
// cluster Reset that precedes any reuse (a fresh Env replaces the cluster
// instead). Growing the arena leaves earlier entries on the old backing
// array, so live pointers never move.
func (e *Env) allocME() *portals.ME {
	if e.mesOff == len(e.mes) {
		grow := 2 * len(e.mes)
		if grow < 64 {
			grow = 64
		}
		e.mes = make([]portals.ME, grow)
		e.mesOff = 0
	}
	me := &e.mes[e.mesOff]
	e.mesOff++
	*me = portals.ME{}
	return me
}

// programBuffer returns the Env's grow-only mpisim program buffer.
func (e *Env) programBuffer() *mpisim.ProgramBuffer {
	if e.progs == nil {
		e.progs = new(mpisim.ProgramBuffer)
	}
	return e.progs
}

// Sweep is a deterministic sweep runner: an experiment registers its
// measurement points in output order, and Run executes them either serially
// on one Env or as queued tasks on a shared Pool — one Env (and therefore
// one engine per cluster configuration) per pool worker, so each engine
// stays single-threaded. Rows are merged back in point order, so the
// resulting table is byte-identical no matter which worker ran which point.
// Each point is an independent simulation (its cluster is reset to the
// post-construction state first), which is what makes the distribution
// sound, and what lets a Pool answer a point it has already finished from
// its memo.
type Sweep struct {
	table  *Table
	points []func(e *Env) ([]string, error)
	// keys[i] names what points[i]'s row depends on besides the experiment
	// and the run's impairment (see Row).
	keys []string

	// faults accumulates the counters of every worker's Env after a run
	// under a fault model (RunOptions.Impairment); the counter sums are
	// order-independent, so they commute with sharding.
	faults netsim.FaultStats
}

// NewSweep returns a sweep that will fill t's rows.
func NewSweep(t *Table) *Sweep { return &Sweep{table: t} }

// Faults returns the fault/recovery counters accumulated by the last run.
func (s *Sweep) Faults() netsim.FaultStats { return s.faults }

// Header returns the column names of the table this sweep fills. It is
// valid before Run — the registry's metadata drift test compares it against
// Experiment.Columns.
func (s *Sweep) Header() []string { return s.table.Header }

// Points returns the number of registered measurement points; Run reports
// progress against this total.
func (s *Sweep) Points() int { return len(s.points) }

// Row appends one measurement point producing one table row. key names
// everything the row depends on besides the experiment (the table ID) and
// the run's impairment — a size, a rank count, a variant or trace name —
// and must be unique within the sweep. The contract a Pool relies on to
// reuse finished points: two points of one experiment with equal keys
// produce byte-identical rows and fault-counter deltas under any
// impairment, at any scale (TestRowKeysIdentifyPoints).
func (s *Sweep) Row(key string, fn func(e *Env) ([]string, error)) {
	s.points = append(s.points, fn)
	s.keys = append(s.keys, key)
}

// RunOptions selects how Run executes a sweep. The zero value runs
// serially, with cluster reuse, on a perfect network. Exactly one execution
// shape applies, chosen in this order: Fresh (serial, no reuse), Pool
// (queued tasks on a shared pool), serial.
type RunOptions struct {
	// Fresh disables reuse: every point runs serially on a fresh Env, which
	// builds every system it is asked for from scratch — the baseline the
	// determinism goldens compare against.
	Fresh bool
	// Impairment installs a fault model for the whole run (nil or a
	// disabled impairment = perfect network). Output stays byte-identical
	// across serial, pool, fresh, and Reset-reuse runs for a fixed
	// impairment.
	Impairment *netsim.Impairment
	// Pool, when non-nil, executes every point as a queued task on the
	// shared persistent worker pool: the pool's long-lived Envs carry their
	// cluster caches across runs, and its worker count bounds execution.
	// A point the pool has already finished for this experiment, key and
	// impairment is not queued again: its remembered row and fault delta
	// are reused. Output is byte-identical to the serial shape because
	// points are hermetic (reset == fresh) and rows merge in point order.
	// Ignored when Fresh is true.
	Pool *Pool
	// LP > 1 partitions every mpisim replay in the sweep into up to that
	// many logical processes advancing on private engines under a
	// conservative window protocol (netsim.NewClusterLP). Output — every
	// row and every fault counter — is byte-identical to the serial run;
	// only wall-clock changes. Experiments that never replay mpisim traces
	// ignore it: portals-based clusters always run serially. LP composes
	// with Pool multiplicatively (each concurrent point runs up to LP
	// engine goroutines), so callers sharing a machine should divide their
	// worker budget by LP.
	LP int
	// Progress, when non-nil, is called after each point completes with
	// the number of completed points and the total. It may be called from
	// worker goroutines concurrently; it must not touch simulation state.
	Progress func(done, total int)
}

// Run executes every point under opts and returns the completed table,
// whose rows it replaces, or the earliest-indexed point error. A serial run stops at its first
// error; a Pool run executes every point and then reports the earliest
// error, so the returned error never depends on scheduling. Successful
// output is byte-identical across all execution shapes: rows merge in
// point registration order, and each point is an independent simulation
// under the reset-equals-fresh contract.
func (s *Sweep) Run(opts RunOptions) (*Table, error) {
	im := opts.Impairment
	if !im.Enabled() {
		im = nil
	}
	rows := make([][]string, len(s.points))
	errs := make([]error, len(s.points))
	s.faults = netsim.FaultStats{}
	var done atomic.Int64
	progress := func() {
		if opts.Progress != nil {
			opts.Progress(int(done.Add(1)), len(s.points))
		}
	}
	if !opts.Fresh && opts.Pool != nil {
		// Queued tasks on the persistent pool: whichever worker dequeues a
		// point runs it on its long-lived Env. Fault counters are charged
		// per point by snapshot delta, so concurrent sweeps sharing the
		// pool each see exactly their own faults. A point the pool has
		// finished before is answered from its memo with the same row and
		// delta, and no task is queued.
		var wg sync.WaitGroup
		var mu sync.Mutex
		impair := im.Key()
		for i := range s.points {
			k := pointKey{exp: s.table.ID, point: s.keys[i], impair: impair}
			if r, ok := opts.Pool.recall(k); ok {
				rows[i] = slices.Clone(r.row)
				mu.Lock()
				s.faults.Add(r.faults)
				mu.Unlock()
				progress()
				continue
			}
			wg.Add(1)
			point := s.points[i]
			out := i
			opts.Pool.submit(func(e *Env) {
				defer wg.Done()
				e.impair = im
				e.lp = opts.LP
				before := e.FaultStats()
				rows[out], errs[out] = point(e)
				delta := e.FaultStats().Sub(before)
				if errs[out] == nil {
					opts.Pool.remember(k, pointResult{row: slices.Clone(rows[out]), faults: delta})
				}
				mu.Lock()
				s.faults.Add(delta)
				mu.Unlock()
				progress()
			})
		}
		wg.Wait()
	} else {
		e := NewEnv()
		e.fresh = opts.Fresh
		e.impair = im
		e.lp = opts.LP
		for i, fn := range s.points {
			rows[i], errs[i] = fn(e)
			progress()
			if errs[i] != nil {
				break
			}
		}
		s.faults.Add(e.FaultStats())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.table.Rows = rows
	return s.table, nil
}
