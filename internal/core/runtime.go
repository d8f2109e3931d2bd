package core

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// MEOwner receives a matching entry's upcalls as a single interface. A
// layer that installs many entries (Portals) implements it once on its
// entry type and stores itself in MEContext.Owner, so building a context
// allocates neither a closure per callback nor the context itself (it can
// embed by value).
type MEOwner interface {
	// MEComplete delivers the message result (event queue / counter
	// updates).
	MEComplete(now sim.Time, r MessageResult)
	// MECTInc propagates PtlHandlerCTInc to the entry's counter.
	MECTInc(now sim.Time, n uint64)
	// MEIssueGet sends a handler get through the owning layer.
	MEIssueGet(now sim.Time, req GetRequest)
}

// MEContext is everything the runtime needs to process messages matched to
// one matching entry: the handlers (none for a plain Portals 4 entry), the
// HPU shared memory, the host memory windows, and the owner that receives
// upcalls into the layer above (Portals event queues, counters, and get
// plumbing).
type MEContext struct {
	Handlers HandlerSet
	// State is the HPU shared memory handle (PtlHPUAllocMem); may be nil
	// for stateless handlers.
	State *HPUMem
	// HostMem is the ME's host-memory region (steering target): the
	// default deposit, handler DMA, PutFromHost and a handler Get's reply
	// are bounded by it, and move no bytes when it is timing-only.
	HostMem Region
	// HandlerHostMem is the optional extra host region for handler output.
	HandlerHostMem Region
	// Owner receives the entry's upcalls: message completion, handler
	// counter increments, and handler gets. May be nil, in which case
	// completions are discarded, CTInc is a no-op, and Get fails.
	Owner MEOwner
}

// msgState tracks one in-flight message on the NIC, in the message's
// RecvState slot from the header packet on. After the last packet it
// doubles as the deferred-completion carrier: the message's header fields
// are copied into res and the msg pointer dropped, so the transport can
// recycle the wire message at dispatch while the completion event is still
// in flight.
type msgState struct {
	rt    *Runtime
	me    *MEContext
	msg   *netsim.Message
	total int
	rc    HeaderRC

	headerDone   bool
	headerDoneAt sim.Time
	arrived      int
	lastEnd      sim.Time // latest handler end / deposit visibility
	dropped      int
	flowCtl      bool
	pending      bool
	err          error
	completed    bool
	res          MessageResult
}

// runComplete is the ScheduleCall entry point that delivers a message's
// result to the upper layer; the state is recycled first, because the
// callback may start processing new messages.
func runComplete(a any) {
	ms := a.(*msgState)
	rt, me, res := ms.rt, ms.me, ms.res
	rt.msFree.Put(ms)
	me.Owner.MEComplete(rt.C.Eng.Now(), res)
}

// Runtime is the per-NIC sPIN runtime: it owns the HPU contexts and HPU
// memory and executes handlers for matched packets handed down by the
// Portals layer.
//
// The HPU model separates contexts from execution units (§4.1): HPUs is a
// pool of NumHPUs×HPUThreads hardware thread contexts — a handler holds
// one for its whole lifetime, including DMA and egress waits, during which
// it is descheduled. Compute cycles serialize on the issue pool of NumHPUs
// cores, so the NIC never exceeds its aggregate instruction throughput.
type Runtime struct {
	C     *netsim.Cluster
	Node  *netsim.Node
	HPUs  *sim.Pool         // thread contexts (admission + flow control)
	issue *sim.IntervalPool // execution units (compute serialization)

	// HPUMemCapacity bounds PtlHPUAllocMem allocations (max_handler_mem).
	HPUMemCapacity int
	hpuMemUsed     int

	// msFree and ctxFree recycle msgState and handler-context objects.
	msFree  sim.FreeList[msgState]
	ctxFree sim.FreeList[Ctx]
	// scratch is the grow-only arena behind Ctx.Scratch: handler staging
	// buffers valid for one invocation, so one region serves every handler
	// on the NIC without per-invocation allocation.
	scratch []byte
	// hpuLanes interns the per-context timeline lane names so recording a
	// handler span never formats.
	hpuLanes []string

	// Stats
	HandlerInvocations uint64
	HandlerCycles      uint64
	PacketsDropped     uint64
	FlowControlEvents  uint64
	// MessagesProcessed counts the puts and atomics whose last packet has
	// arrived, at entries with handlers or without.
	MessagesProcessed uint64
}

// DefaultHPUMemCapacity is the scratchpad capacity assumed per NIC. The
// paper derives ~25 KB of buffering per 200 ns of handler delay at 1 Tb/s
// (§4.1) and suggests several microseconds' worth is realistic; 1 MiB
// accommodates all the paper's use cases with room for user state.
const DefaultHPUMemCapacity = 1 << 20

// NewRuntime attaches a sPIN runtime to a node.
func NewRuntime(c *netsim.Cluster, node *netsim.Node) *Runtime {
	threads := c.P.HPUThreads
	if threads < 1 {
		threads = 1
	}
	return &Runtime{
		C:              c,
		Node:           node,
		HPUs:           sim.NewPool(fmt.Sprintf("hpuctx-%d", node.Rank), c.P.NumHPUs*threads),
		issue:          sim.NewIntervalPool(fmt.Sprintf("hpu-%d", node.Rank), c.P.NumHPUs, c.Eng),
		HPUMemCapacity: DefaultHPUMemCapacity,
	}
}

// Reset returns the runtime to its post-construction state: idle HPU
// contexts and issue units, zeroed statistics, and all scratchpad memory
// released. The free lists and the interned lane names are kept — they
// carry no simulation state (every record is zeroed when recycled, and the
// pool sizes that the lane names depend on never change after
// construction).
func (rt *Runtime) Reset() {
	rt.ResetInFlight()
	rt.hpuMemUsed = 0
}

// ResetInFlight resets the runtime's transient state — idle HPU contexts
// and issue units, zeroed statistics — while keeping scratchpad
// allocations alive (the state of messages still in flight rides in their
// RecvState slots and is abandoned with them). It is the runtime half of
// portals.NI.ResetInFlight: reusable systems hold their PtlHPUAllocMem
// handles across replays, so the accounting must survive (the handler
// state inside each allocation is re-initialized by the ME reset).
func (rt *Runtime) ResetInFlight() {
	rt.HPUs.Reset()
	rt.issue.Reset()
	rt.HandlerInvocations = 0
	rt.HandlerCycles = 0
	rt.PacketsDropped = 0
	rt.FlowControlEvents = 0
	rt.MessagesProcessed = 0
}

// hpuLane interns the timeline lane name of HPU context i. Lanes are built
// on first use so runtimes that never record (the common benchmark case)
// never format them.
func (rt *Runtime) hpuLane(i int) string {
	if rt.hpuLanes == nil {
		rt.hpuLanes = make([]string, rt.HPUs.Size())
		for j := range rt.hpuLanes {
			rt.hpuLanes[j] = fmt.Sprintf("HPU %d", j) //simlint:alloc-ok lanes are interned once on first recording use, not per event
		}
	}
	return rt.hpuLanes[i]
}

// AllocHPUMem allocates n bytes of HPU scratchpad (PtlHPUAllocMem).
func (rt *Runtime) AllocHPUMem(n int) (*HPUMem, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative HPU memory size %d", n)
	}
	if rt.hpuMemUsed+n > rt.HPUMemCapacity {
		return nil, fmt.Errorf("core: HPU memory exhausted: %d + %d > %d", rt.hpuMemUsed, n, rt.HPUMemCapacity)
	}
	rt.hpuMemUsed += n
	return &HPUMem{Buf: make([]byte, n)}, nil
}

// FreeHPUMem releases scratchpad memory (PtlHPUFreeMem).
func (rt *Runtime) FreeHPUMem(m *HPUMem) {
	if m == nil {
		return
	}
	rt.hpuMemUsed -= len(m.Buf)
	m.Buf = nil
}

// HPUMemUsed reports the currently allocated scratchpad bytes.
func (rt *Runtime) HPUMemUsed() int { return rt.hpuMemUsed }

// Deliver processes one matched packet of a put or atomic. The header
// packet opens the message's state for me and stores it in the message's
// RecvState slot; every later packet finds it there, so me is read only at
// the header. An entry without handlers gets the default action, as a
// header handler's Proceed does. The transport delivers packets of a
// message in order (header first); Deliver panics on a violation of that
// invariant because it would indicate a transport bug.
func (rt *Runtime) Deliver(now sim.Time, pkt *netsim.Packet, me *MEContext) {
	var ms *msgState
	if pkt.Header {
		ms = rt.msFree.Get()
		ms.rt, ms.me, ms.msg, ms.total = rt, me, pkt.Msg, rt.C.P.Packets(pkt.Msg.Length)
		pkt.Msg.RecvState = ms
	} else if ms, _ = pkt.Msg.RecvState.(*msgState); ms == nil {
		panic("core: payload packet before header packet")
	}
	ms.arrived++
	if pkt.Header {
		rt.runHeader(now, pkt, ms)
		// The header packet may carry payload itself.
		if pkt.Size > 0 {
			rt.handlePayload(now, pkt, ms)
		}
	} else {
		rt.handlePayload(now, pkt, ms)
	}
	rt.maybeComplete(ms)
}

// newCtx draws a handler context from the free list, starting at time start
// on HPU hpu. Contexts live for exactly one handler invocation — finishCtx
// recycles them — so handlers must not retain *Ctx (or Scratch buffers)
// past their return.
func (rt *Runtime) newCtx(start sim.Time, hpu int, ms *msgState) *Ctx {
	c := rt.ctxFree.Get()
	*c = Ctx{rt: rt, me: ms.me, msg: ms.msg, now: start, start: start, hpu: hpu}
	return c
}

// finishCtx closes a handler invocation: charges the epilogue, extends the
// HPU reservation, records the span, and merges timing into the message.
func (rt *Runtime) finishCtx(c *Ctx, ms *msgState, kind string) sim.Time {
	c.Charge(CostHandlerReturn)
	rt.HPUs.ExtendReservation(c.hpu, c.now)
	if rt.C.Rec.Enabled() {
		rt.C.Rec.Record(rt.Node.Rank, rt.hpuLane(c.hpu), c.start, c.now, kind)
	}
	rt.HandlerInvocations++
	rt.HandlerCycles += uint64(c.cycles)
	if c.err != nil && ms.err == nil {
		ms.err = c.err
	}
	if c.now > ms.lastEnd {
		ms.lastEnd = c.now
	}
	if c.lastVisible > ms.lastEnd {
		ms.lastEnd = c.lastVisible
	}
	end := c.now
	rt.ctxFree.Put(c)
	return end
}

func (rt *Runtime) runHeader(now sim.Time, pkt *netsim.Packet, ms *msgState) {
	ms.headerDone = true
	ms.headerDoneAt = now
	if ms.me.Handlers.Header == nil {
		if ms.me.Handlers.Payload != nil {
			ms.rc = ProcessData
		} else {
			ms.rc = Proceed
		}
		return
	}
	hpu, start, ok := rt.HPUs.AcquireAnyBefore(now, 0, now+rt.C.P.FlowDeadline)
	if !ok {
		// No HPU context: the portal enters flow control and the whole
		// message is discarded (§3.2).
		rt.FlowControlEvents++
		ms.flowCtl = true
		ms.rc = Drop
		ms.dropped += pkt.Msg.Length
		return
	}
	c := rt.newCtx(start, hpu, ms)
	c.Charge(CostHandlerStart)
	rc := ms.me.Handlers.Header(c, Header{
		Type:      uint8(pkt.Msg.Type),
		Length:    pkt.Msg.Length,
		Target:    pkt.Msg.Dst,
		Source:    pkt.Msg.Src,
		MatchBits: pkt.Msg.MatchBits,
		Offset:    pkt.Msg.Offset,
		HdrData:   pkt.Msg.HdrData,
		UserHdr:   pkt.Msg.UserHdr,
	})
	end := rt.finishCtx(c, ms, "hdr")
	ms.headerDoneAt = end
	if rc.IsError() {
		if ms.err == nil {
			ms.err = fmt.Errorf("core: header handler returned %d", rc)
		}
		rc = Drop
	}
	if rc.Pending() {
		ms.pending = true
	}
	// Normalize to the three base actions.
	switch rc {
	case Drop, DropPending:
		ms.rc = Drop
	case Proceed, ProceedPending:
		ms.rc = Proceed
	default:
		ms.rc = ProcessData
	}
	if ms.rc == ProcessData && ms.me.Handlers.Payload == nil {
		ms.rc = Proceed
	}
}

func (rt *Runtime) handlePayload(now sim.Time, pkt *netsim.Packet, ms *msgState) {
	start := now
	if ms.headerDoneAt > start {
		start = ms.headerDoneAt
	}
	switch ms.rc {
	case Drop:
		// Flow-control drops counted the whole message at the header;
		// handler-requested drops accumulate per discarded packet.
		if !ms.flowCtl {
			ms.dropped += pkt.Size
		}
		rt.PacketsDropped++
	case Proceed:
		rt.deposit(start, pkt, ms)
	case ProcessData:
		hpu, hstart, ok := rt.HPUs.AcquireAnyBefore(start, 0, start+rt.C.P.FlowDeadline)
		if !ok {
			rt.FlowControlEvents++
			rt.PacketsDropped++
			ms.flowCtl = true
			ms.dropped += pkt.Size
			return
		}
		c := rt.newCtx(hstart, hpu, ms)
		c.Charge(CostHandlerStart)
		prc := ms.me.Handlers.Payload(c, Payload{Offset: pkt.Offset, Size: pkt.Size, Data: payloadBytes(pkt)})
		rt.finishCtx(c, ms, "pld")
		switch prc {
		case PayloadDrop:
			ms.dropped += pkt.Size
		case PayloadFail, PayloadSegv:
			if ms.err == nil {
				ms.err = fmt.Errorf("core: payload handler returned %d", prc)
			}
		}
	}
}

// payloadBytes returns the packet's payload slice, or nil for a message
// without data.
func payloadBytes(pkt *netsim.Packet) []byte {
	if pkt.Msg.Data == nil {
		return nil
	}
	return pkt.Msg.Data[pkt.Offset : pkt.Offset+pkt.Size]
}

// deposit performs the default action, the only one that applies a put's
// payload to host memory: DMA the packet into the ME's host region at the
// message offset, truncated at the region's bounds, as a copy or, for an
// atomic, as its operation.
func (rt *Runtime) deposit(start sim.Time, pkt *netsim.Packet, ms *msgState) {
	_, visible := rt.Node.Bus.Write(start, pkt.Size)
	rt.C.Rec.Record(rt.Node.Rank, "DMA", start, visible, "deposit")
	dst, src := ms.me.HostMem.Land(pkt.Msg.Offset+int64(pkt.Offset), payloadBytes(pkt))
	if pkt.Msg.Type == netsim.OpAtomic {
		applyAtomic(AtomicOp(pkt.Msg.AtomicOp), dst, src)
	} else {
		copy(dst, src)
	}
	if visible > ms.lastEnd {
		ms.lastEnd = visible
	}
}

func (rt *Runtime) maybeComplete(ms *msgState) {
	if ms.completed || !ms.headerDone || ms.arrived < ms.total {
		return
	}
	ms.completed = true
	rt.MessagesProcessed++

	end := ms.lastEnd
	if ms.headerDoneAt > end {
		end = ms.headerDoneAt
	}
	// A message whose packets were all discarded (flow control with no
	// handler runs after the header) has its last activity at the header,
	// but it cannot complete before its final packet has arrived — which is
	// the instant maybeComplete runs.
	if now := rt.C.Eng.Now(); end < now {
		end = now
	}
	if ms.me.Handlers.Completion != nil {
		hpu, start := rt.HPUs.AcquireAny(end, 0)
		c := rt.newCtx(start, hpu, ms)
		c.Charge(CostHandlerStart)
		crc := ms.me.Handlers.Completion(c, ms.dropped, ms.flowCtl)
		end = rt.finishCtx(c, ms, "cpl")
		switch crc {
		case CompletionSuccessPending:
			ms.pending = true
		case CompletionFail, CompletionSegv:
			if ms.err == nil {
				ms.err = fmt.Errorf("core: completion handler returned %d", crc)
			}
		}
		if ms.lastEnd > end {
			end = ms.lastEnd
		}
	}
	if ms.me.Owner != nil {
		// Copy the header fields out of the wire message: the result is
		// delivered by a deferred event, and the transport recycles pooled
		// messages as soon as this (final) dispatch returns. The msgState
		// itself carries the result to the event — it is recycled when the
		// event fires instead of here.
		ms.res = MessageResult{
			MsgID:        ms.msg.ID,
			Type:         ms.msg.Type,
			Source:       ms.msg.Src,
			MatchBits:    ms.msg.MatchBits,
			HdrData:      ms.msg.HdrData,
			Length:       ms.msg.Length,
			Offset:       ms.msg.Offset,
			AckReq:       ms.msg.AckReq,
			End:          end,
			DroppedBytes: ms.dropped,
			FlowControl:  ms.flowCtl,
			Pending:      ms.pending,
			Err:          ms.err,
		}
		ms.msg = nil
		rt.C.Eng.ScheduleCall(end, runComplete, ms)
		return
	}
	rt.msFree.Put(ms)
}
