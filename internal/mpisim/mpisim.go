// Package mpisim implements the §5.1 message-matching study: MPI-style
// rank programs (compute phases + nonblocking halo exchanges) replayed over
// the simulated network with two protocol engines:
//
//   - HostMatching — the RDMA baseline: eager messages always bounce
//     through a staging buffer and are copied by the CPU; rendezvous
//     transfers require the receiving CPU to be inside an MPI call to
//     progress (synchronous progression), so RTS packets arriving during
//     compute wait for the next MPI entry.
//   - SpinMatching — the paper's offloaded protocol: the NIC matches in
//     hardware; pre-posted receives deposit directly (no copy, case I/II of
//     Fig. 5b), and the rendezvous header handler issues the get
//     immediately, giving fully asynchronous progress.
//
// The engine measures total runtime and the time ranks spend blocked in
// MPI, which yields Table 5c's overhead and speedup columns.
//
// Engines are reusable: Reset returns an engine to its post-construction
// state for a new program set on the same cluster, and all per-message
// protocol state (requests, arrivals, wire messages) is drawn from
// engine-owned free lists, so a steady-state replay allocates almost
// nothing. See Reset for the determinism contract.
package mpisim

import (
	"fmt"

	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

// MatchMode selects the protocol engine.
type MatchMode int

const (
	// HostMatching is the CPU-driven baseline.
	HostMatching MatchMode = iota
	// SpinMatching is the sPIN-offloaded protocol.
	SpinMatching
)

func (m MatchMode) String() string {
	if m == SpinMatching {
		return "sPIN"
	}
	return "host"
}

// OpKind enumerates program operations.
type OpKind int

// Program operations.
const (
	OpCompute OpKind = iota
	OpIsend
	OpIrecv
	OpWaitAll
	// OpRepeat ends a periodic program: the ops before it run Size times
	// in all, and pass i (from 0) adds i×Tag to every OpIsend and OpIrecv
	// tag, so a program replays exactly as its unrolled form would. It may
	// only be a program's last op, with Size at least 1 (New and Reset
	// reject anything else).
	OpRepeat
)

// Op is one step of a rank program.
type Op struct {
	Kind OpKind
	Dur  sim.Time // OpCompute
	Peer int      // OpIsend / OpIrecv
	Tag  uint64   // OpIsend / OpIrecv; OpRepeat: the tag stride per pass
	Size int      // OpIsend / OpIrecv: bytes; OpRepeat: passes
}

// checkPrograms reports the first OpRepeat of a program set that is not
// its program's last op or has fewer than one pass.
func checkPrograms(programs [][]Op) error {
	for rank, ops := range programs {
		for i, op := range ops {
			switch {
			case op.Kind != OpRepeat:
			case i != len(ops)-1:
				return fmt.Errorf("mpisim: rank %d: OpRepeat at op %d is not the last of %d", rank, i, len(ops))
			case op.Size < 1:
				return fmt.Errorf("mpisim: rank %d: OpRepeat with %d passes, want at least 1", rank, op.Size)
			}
		}
	}
	return nil
}

// Config parameterizes a replay.
type Config struct {
	Params netsim.Params
	Mode   MatchMode
	// EagerThreshold splits eager from rendezvous transfers.
	EagerThreshold int
	// Noise optionally injects OS noise into host CPU work. It is invoked
	// once per rank at construction time; the resulting models are reused
	// for every compute phase and every Reset (noise.Model is stateless, so
	// reuse is simulation-identical to rebuilding).
	Noise func(rank int) *noise.Model
	// RecvPostCost is the CPU cost of posting a receive.
	RecvPostCost sim.Time

	// Impair optionally installs a fault model on the cluster (see
	// netsim.Impairment). An impaired replay needs recovery: New enables
	// rendezvous-control retry (RetryTimeout defaulted if unset) and forces
	// every send through the rendezvous protocol, whose control messages
	// (RTS, pull, data) are all covered by the retry machinery — eager
	// sends have no recovery path.
	Impair *netsim.Impairment
	// RetryTimeout is how long a rank waits for a rendezvous control
	// exchange to progress before resending the RTS or pull; 0 disables
	// retry.
	RetryTimeout sim.Time
	// MaxRetries bounds control-message resends per exchange (defaulted
	// when retry is enabled). An exchange that exhausts its budget stops
	// progressing and surfaces as a deadlock from Run.
	MaxRetries int

	// LP partitions the cluster into up to LP logical processes advancing
	// concurrently under a conservative lookahead window
	// (netsim.NewClusterLP); 0 or 1 replays serially. Simulated output is
	// byte-identical at any LP — partitioning changes wall-clock time only.
	LP int
}

// DefaultRetryTimeout is the rendezvous-control retry interval installed by
// New when an impairment is configured without an explicit timeout. It
// comfortably exceeds the round-trip of a control exchange at the paper's
// parameters.
const DefaultRetryTimeout = 20 * sim.Microsecond

// DefaultConfig returns the configuration used for Table 5c.
func DefaultConfig(mode MatchMode) Config {
	return Config{
		Params:         netsim.Discrete(),
		Mode:           mode,
		EagerThreshold: 8192,
		RecvPostCost:   50 * sim.Nanosecond,
	}
}

// Result summarizes one replay.
type Result struct {
	Runtime sim.Time
	// MPITime is the summed per-rank time blocked in MPI waits.
	MPITime sim.Time
	// Messages counts application messages (sends).
	Messages uint64
	// Events counts simulator events processed.
	Events uint64
	// Copies counts CPU bounce-buffer copies performed.
	Copies uint64
	// Retransmits counts rendezvous control messages resent under
	// impairment (deterministic for a fixed seed, like every counter here).
	Retransmits uint64
}

// OverheadFraction returns MPI blocked time as a fraction of total
// rank-seconds (the paper's "ovhd" column).
func (r Result) OverheadFraction(ranks int) float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(r.MPITime) / (float64(r.Runtime) * float64(ranks))
}

// recvReq and sendReq are posted receives and sends. ctl is the retry
// record of the request's open rendezvous exchange (a receive's pull, a
// send's RTS), nil when retry is off, the exchange is over or its timer
// gave up.
type recvReq struct {
	peer int
	tag  uint64
	size int
	done bool
	ctl  *ctlRetry
}

type sendReq struct {
	done bool
	ctl  *ctlRetry
}

// inflight assembles a multi-packet wire message at the receiver; it rides
// in the message's RecvState slot from the first arriving packet to the
// last.
type inflight struct {
	arrived int
	total   int
	visible sim.Time
}

// pendingArrival is a fully arrived message not yet matched or consumed.
// It copies everything the protocol needs out of the wire message, so the
// message itself can be recycled the moment it is dispatched.
type pendingArrival struct {
	src    int
	tag    uint64
	size   int
	rts    bool // rendezvous announcement rather than data
	at     sim.Time
	pullID uint64 // rendezvous transfer id (rts only)
}

// pullDest records where a rendezvous pull's data must complete.
type pullDest struct {
	r  *rank
	rr *recvReq
}

// rank is one simulated MPI process. Every mutable field — program state,
// protocol maps, free lists, counters — is owned by the rank and touched
// only by events on its node's engine, which is what makes the LP mode's
// concurrent windows race-free: a rank's protocol state never crosses the
// shard seam (senders and receivers each key their own maps; see the field
// comments).
type rank struct {
	id  int
	eng *Engine
	// nc is the transport cluster owning this rank's node: the shard in LP
	// mode, the root cluster when serial. All of the rank's events schedule
	// on nc.Eng, and its wire messages come from nc's free list.
	nc  *netsim.Cluster
	cpu *hostsim.CPU
	// nz is the rank's noise model, built once at construction (not once
	// per compute phase) and shared with the CPU.
	nz *noise.Model

	// ops is the rank's program, shared read-only with every engine that
	// replays it; pc, pass and tagOff are this rank's position in it: the
	// op, the pass of a trailing OpRepeat, and pass×stride, the offset
	// that pass adds to send and receive tags.
	ops    []Op
	pc     int
	pass   int
	tagOff uint64

	posted     []*recvReq
	unexpected []*pendingArrival

	sends []*sendReq
	recvs []*recvReq

	// rdvPull maps rendezvous ids this rank announced (as sender) to their
	// completion state; the pull arrives back at this rank and deletes them.
	rdvPull map[uint64]*sendReq
	// pullWait maps rendezvous ids this rank is pulling (as receiver) to the
	// receive awaiting the data.
	pullWait map[uint64]pullDest
	// rtsSeen records rendezvous ids whose RTS this rank already processed,
	// so a retransmitted RTS cannot double-match (only populated when retry
	// is on).
	rtsSeen map[uint64]struct{}

	// Rank-owned free lists for per-message protocol state: each rank's
	// events are single-threaded, so reuse order is deterministic, and every
	// object's lifecycle stays on the rank that drew it. Wire messages come
	// from the owning cluster's free list (netsim.Cluster.AllocMessage) and
	// are recycled by the transport at last-packet dispatch.
	recvFree sim.FreeList[recvReq]
	sendFree sim.FreeList[sendReq]
	paFree   sim.FreeList[pendingArrival]
	inflFree sim.FreeList[inflight]
	ctlFree  sim.FreeList[ctlRetry]

	// Per-rank result counters, folded into Res by Run.
	messages    uint64
	copies      uint64
	retransmits uint64

	// inMPI is true while the rank is inside an MPI call (WaitAll);
	// the baseline can only progress protocols then.
	inMPI      bool
	mpiEnter   sim.Time
	mpiBlocked sim.Time
	// pendingProgress queues protocol arrivals (RTS service, eager copies)
	// until the host enters MPI (baseline mode).
	pendingProgress []*pendingArrival

	finished bool
	endTime  sim.Time
}

// Engine replays rank programs.
type Engine struct {
	C    *netsim.Cluster
	Cfg  Config
	rank []*rank

	Res Result
}

// New builds a replay engine for the given per-rank programs.
func New(cfg Config, programs [][]Op) (*Engine, error) {
	if err := checkPrograms(programs); err != nil {
		return nil, err
	}
	c, err := netsim.NewClusterLP(len(programs), cfg.Params, cfg.LP)
	if err != nil {
		return nil, err
	}
	if cfg.Impair.Enabled() {
		c.SetImpairment(cfg.Impair)
		if cfg.RetryTimeout <= 0 {
			cfg.RetryTimeout = DefaultRetryTimeout
		}
	}
	if cfg.RetryTimeout > 0 && cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 16
	}
	e := &Engine{C: c, Cfg: cfg}
	e.rank = make([]*rank, len(programs))
	for i, prog := range programs {
		var nz *noise.Model
		if cfg.Noise != nil {
			nz = cfg.Noise(i)
		}
		e.rank[i] = &rank{
			id: i, eng: e, nc: c.NodeCluster(i),
			cpu: hostsim.New(c, i, nz), nz: nz, ops: prog,
			rdvPull:  make(map[uint64]*sendReq),
			pullWait: make(map[uint64]pullDest),
			rtsSeen:  make(map[uint64]struct{}),
		}
		c.Nodes[i].Recv = &nodeRecv{e: e, r: e.rank[i]}
	}
	return e, nil
}

// Ranks returns the number of rank programs the engine replays; Reset
// requires a program set of the same size.
func (e *Engine) Ranks() int { return len(e.rank) }

// Reset returns the engine to its post-construction state for a new program
// set on the same cluster, so one engine per (rank count, configuration) can
// serve an entire experiment instead of a single replay. The cluster's
// transport state (engine clock/queue/sequence, resource busy-until
// timelines, recorder) restarts via netsim.Cluster.Reset; the protocol
// maps are cleared in place; and all outstanding per-message state returns
// to the engine's free lists.
//
// Determinism contract (mirroring netsim.Cluster.Reset): a reset engine
// produces bit-identical simulated output to a freshly constructed one for
// the same programs, because every input to the event order restarts
// exactly — free-list and map-bucket reuse changes allocation behaviour
// only, and no simulation path iterates those maps.
func (e *Engine) Reset(programs [][]Op) error {
	if len(programs) != len(e.rank) {
		return fmt.Errorf("mpisim: Reset with %d programs on a %d-rank engine", len(programs), len(e.rank))
	}
	if err := checkPrograms(programs); err != nil {
		return err
	}
	e.C.Reset()
	e.Res = Result{}
	for i, r := range e.rank {
		// The maps' values are owned by the rank-side lists below, so free
		// exactly once from the owner; so are the retry records of open
		// exchanges, whose timers the cluster reset dropped. Assembly
		// records of messages still in flight ride in those messages'
		// receive slots and are abandoned to the GC with them.
		clear(r.rdvPull)
		clear(r.pullWait)
		clear(r.rtsSeen)
		for _, rr := range r.recvs {
			r.endRetry(&rr.ctl)
			r.recvFree.Put(rr)
		}
		for _, sr := range r.sends {
			r.endRetry(&sr.ctl)
			r.sendFree.Put(sr)
		}
		for _, pa := range r.unexpected {
			r.paFree.Put(pa)
		}
		for _, pa := range r.pendingProgress {
			r.paFree.Put(pa)
		}
		r.ops = programs[i]
		r.pc = 0
		r.pass = 0
		r.tagOff = 0
		r.posted = r.posted[:0] // entries are owned by (and freed via) recvs
		r.unexpected = r.unexpected[:0]
		r.sends = r.sends[:0]
		r.recvs = r.recvs[:0]
		r.messages = 0
		r.copies = 0
		r.retransmits = 0
		r.inMPI = false
		r.mpiEnter = 0
		r.mpiBlocked = 0
		r.pendingProgress = r.pendingProgress[:0]
		r.finished = false
		r.endTime = 0
		r.cpu.Reset(r.nz)
	}
	return nil
}

// ctlRetry tracks one rendezvous control message (RTS or pull) awaiting
// progress under impairment, and timer is its pending timeout. The
// exchange's request points to the record (sendReq.ctl for an RTS,
// recvReq.ctl for a pull) from arming until the exchange ends: the end
// (the pull reaching the sender, the data reaching the receiver, or a
// Reset) cancels the timer and recycles the record, so a timer that fires
// always finds its exchange open and resends. A timer that spends the
// retry budget clears the request's pointer and recycles the record
// itself. Records are engine-owned and closure-free like every other
// pooled object here.
type ctlRetry struct {
	e     *Engine
	isRTS bool
	id    uint64 // rendezvous/pull id
	rnk   *rank  // sender (RTS) or receiver (pull)
	peer  int
	tag   uint64
	size  int
	tries int
	timer sim.Handle
}

// retryOn reports whether rendezvous-control retry is active.
func (e *Engine) retryOn() bool { return e.Cfg.RetryTimeout > 0 && e.C.Impaired() }

// armCtlRetry schedules the retry timer for a control exchange on the
// arming rank's own engine and returns its record, for the exchange's
// request to hold.
func (e *Engine) armCtlRetry(now sim.Time, isRTS bool, id uint64, r *rank, peer int, tag uint64, size int) *ctlRetry {
	cr := r.ctlFree.Get()
	cr.e, cr.isRTS, cr.id, cr.rnk, cr.peer, cr.tag, cr.size = r.eng, isRTS, id, r, peer, tag, size
	cr.timer = r.nc.Eng.ScheduleCall(now+e.Cfg.RetryTimeout, runCtlRetry, cr)
	return cr
}

// endRetry ends a request's control retry when its exchange ends: it
// cancels the pending timer (a no-op after a Reset dropped it), recycles
// the record and clears the request's pointer, which is nil already when
// retry is off or the timer gave up.
func (r *rank) endRetry(ctl **ctlRetry) {
	if cr := *ctl; cr != nil {
		r.nc.Eng.Cancel(cr.timer)
		r.ctlFree.Put(cr)
		*ctl = nil
	}
}

// runCtlRetry is the ScheduleCall entry point for a control-retry timeout.
// It fires on the arming rank's engine, only while the exchange is open
// (its end cancels the timer), and touches only that rank's maps and its
// shard's fault counters.
func runCtlRetry(a any) {
	cr := a.(*ctlRetry)
	e := cr.e
	r := cr.rnk
	if cr.tries >= e.Cfg.MaxRetries {
		// Budget spent: stop resending. The unfinished exchange surfaces as
		// a deadlock from Run, which is the honest outcome of a partitioned
		// network.
		r.nc.Faults.RetransFails++
		if cr.isRTS {
			r.rdvPull[cr.id].ctl = nil
		} else {
			r.pullWait[cr.id].rr.ctl = nil
		}
		r.ctlFree.Put(cr)
		return
	}
	cr.tries++
	r.retransmits++
	r.nc.Faults.Retransmits++
	now := r.nc.Eng.Now()
	m := r.nc.AllocMessage()
	m.Type = netsim.OpPut // RTS rides a put header
	if !cr.isRTS {
		m.Type = netsim.OpGet
	}
	m.Src = r.id
	m.Dst = cr.peer
	m.MatchBits = cr.tag
	m.HdrData = cr.id
	m.GetLength = cr.size
	e.C.Send(now, m)
	cr.timer = r.nc.Eng.ScheduleCall(now+e.Cfg.RetryTimeout, runCtlRetry, cr)
}

// Run replays the programs to completion and returns the result.
func (e *Engine) Run() (Result, error) {
	for _, r := range e.rank {
		r.nc.Eng.ScheduleCall(0, rankStep, r)
	}
	e.C.Run()
	var end sim.Time
	for _, r := range e.rank {
		if !r.finished {
			// The position counts ops as if a trailing OpRepeat were
			// unrolled.
			at, of := r.pc, len(r.ops)
			if n := len(r.ops); n > 0 && r.ops[n-1].Kind == OpRepeat {
				at, of = r.pass*(n-1)+r.pc, r.ops[n-1].Size*(n-1)
			}
			return Result{}, fmt.Errorf("mpisim: rank %d deadlocked at op %d/%d", r.id, at, of)
		}
		if r.endTime > end {
			end = r.endTime
		}
		e.Res.MPITime += r.mpiBlocked
		e.Res.Messages += r.messages
		e.Res.Copies += r.copies
		e.Res.Retransmits += r.retransmits
	}
	e.Res.Runtime = end
	e.Res.Events = e.C.Processed()
	return e.Res, nil
}

// rankStep and rankResume are the pre-bound event entry points (ScheduleCall
// arguments), replacing the per-event closures of the seed engine.

func rankStep(a any) {
	r := a.(*rank)
	r.step(r.nc.Eng.Now())
}

func rankResume(a any) {
	r := a.(*rank)
	r.resume(r.nc.Eng.Now())
}

// step advances a rank's program at time now.
func (r *rank) step(now sim.Time) {
	for r.pc < len(r.ops) {
		op := r.ops[r.pc]
		switch op.Kind {
		case OpCompute:
			r.pc++
			end := r.nz.Inflate(now, op.Dur)
			r.nc.Eng.ScheduleCall(end, rankStep, r)
			return
		case OpIsend:
			r.pc++
			op.Tag += r.tagOff
			now = r.isend(now, op)
		case OpIrecv:
			r.pc++
			op.Tag += r.tagOff
			now = r.irecv(now, op)
		case OpRepeat:
			r.pass++
			if r.pass < op.Size {
				r.pc = 0
				r.tagOff += op.Tag
				continue
			}
			r.pc++
		case OpWaitAll:
			if r.allDone() {
				r.pc++
				r.releaseRequests()
				continue
			}
			// Block in MPI: enable progress, drain queued work.
			if !r.inMPI {
				r.inMPI = true
				r.mpiEnter = now
				r.drainProgress(now)
			}
			return
		}
	}
	r.finished = true
	r.endTime = now
}

// releaseRequests recycles the completed wait phase's requests. Every send
// and receive is done here, so nothing else holds them: completed sendReqs
// were deleted from rdvPull when their pull arrived, and completed recvReqs
// were removed from posted (and pullWait) when they matched.
func (r *rank) releaseRequests() {
	for _, sr := range r.sends {
		r.sendFree.Put(sr)
	}
	for _, rr := range r.recvs {
		r.recvFree.Put(rr)
	}
	r.sends = r.sends[:0]
	r.recvs = r.recvs[:0]
}

// resume is called when a completion might unblock a WaitAll.
func (r *rank) resume(now sim.Time) {
	if r.finished || !r.inMPI {
		return
	}
	if r.pc < len(r.ops) && r.ops[r.pc].Kind == OpWaitAll && r.allDone() {
		r.inMPI = false
		r.mpiBlocked += now - r.mpiEnter
		r.step(now)
	}
}

func (r *rank) allDone() bool {
	for _, s := range r.sends {
		if !s.done {
			return false
		}
	}
	for _, rc := range r.recvs {
		if !rc.done {
			return false
		}
	}
	return true
}

// drainProgress services protocol arrivals deferred until MPI entry
// (baseline). New arrivals during the drain are progressed immediately
// (inMPI is already true), so the list cannot grow while it is walked.
func (r *rank) drainProgress(now sim.Time) {
	for i := 0; i < len(r.pendingProgress); i++ {
		pa := r.pendingProgress[i]
		r.pendingProgress[i] = nil
		r.progressArrival(now, pa)
	}
	r.pendingProgress = r.pendingProgress[:0]
}

// enqueueArrival defers servicing pa until the host can progress MPI. When
// the host is already inside MPI it is serviced immediately.
func (r *rank) enqueueArrival(now sim.Time, pa *pendingArrival) {
	if r.inMPI {
		r.progressArrival(now, pa)
		return
	}
	r.pendingProgress = append(r.pendingProgress, pa)
}
