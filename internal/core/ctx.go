package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// MemSpace selects which host-memory region a DMA call targets
// (PTL_ME_HOST_MEM vs PTL_HANDLER_HOST_MEM, Appendix B.6).
type MemSpace int

const (
	// MEHostMem is the ME's steering target region.
	MEHostMem MemSpace = iota
	// HandlerHostMem is the auxiliary per-handler host region.
	HandlerHostMem
)

// DMAHandle tracks a nonblocking DMA transfer (Appendix B.6).
type DMAHandle struct {
	done sim.Time
	used bool
}

// GetRequest describes a handler-issued get (PtlHandlerGet*): fetch Length
// bytes from the ME matched by MatchBits at Target and deposit them at
// LocalOffset of the issuing ME's host memory.
type GetRequest struct {
	Target       int
	PTIndex      int
	MatchBits    uint64
	HdrData      uint64
	LocalOffset  int64
	RemoteOffset int64
	Length       int
}

// Ctx is the execution context passed to every handler invocation. It
// exposes the handler actions of Appendix B.6 and accounts simulated time:
// each action advances the context's clock by its instruction cost and any
// resource waits (DMA bus, NIC egress).
type Ctx struct {
	rt  *Runtime
	me  *MEContext
	msg *netsim.Message

	now    sim.Time
	start  sim.Time
	hpu    int
	cycles int64
	err    error

	// scratchOff is this invocation's high-water mark in the runtime's
	// grow-only scratch arena (see Scratch).
	scratchOff int

	// lastVisible tracks when this invocation's DMA writes become
	// globally visible, for completion-event ordering.
	lastVisible sim.Time
}

// Now returns the handler's current simulated time.
func (c *Ctx) Now() sim.Time { return c.now }

// MTU returns the device's maximum packet payload (max_payload_size).
func (c *Ctx) MTU() int { return c.rt.C.P.MTU }

// HdrData returns the current message's 64-bit inline header data, also
// available to payload and completion handlers (the header struct itself
// is only passed to the header handler).
func (c *Ctx) HdrData() uint64 {
	c.Charge(1)
	return c.msg.HdrData
}

// MyHPU returns the index of the HPU executing this handler (PTL_MY_HPU).
func (c *Ctx) MyHPU() int { return c.hpu }

// NumHPUs returns the number of HPU contexts (PTL_NUM_HPUS).
func (c *Ctx) NumHPUs() int { return c.rt.HPUs.Size() }

// State returns the HPU shared memory attached to the ME.
func (c *Ctx) State() []byte {
	if c.me.State == nil {
		return nil
	}
	return c.me.State.Buf
}

// Err returns the first action error (e.g. out-of-range DMA), if any.
func (c *Ctx) Err() error { return c.err }

// Cycles returns the instruction cycles charged so far in this invocation.
func (c *Ctx) Cycles() int64 { return c.cycles }

// Charge accounts n instruction cycles of handler computation. Cycles
// contend for the NIC's execution units: with more thread contexts than
// cores, compute from concurrent handlers serializes on the issue pool
// while DMA and egress waits overlap freely.
func (c *Ctx) Charge(n int64) {
	if n <= 0 {
		return
	}
	c.cycles += n
	dur := sim.Time(n) * c.rt.C.P.HPUCycle
	_, start := c.rt.issue.AcquireAny(c.now, dur)
	c.now = start + dur
}

// ChargePerByteMilli accounts a data-parallel loop over n bytes at
// milliCyclesPerByte (see costs.go for calibrated constants).
func (c *Ctx) ChargePerByteMilli(n int, milliCyclesPerByte int64) {
	if n <= 0 {
		return
	}
	cy := (int64(n)*milliCyclesPerByte + 999) / 1000
	c.Charge(cy)
}

// Yield hints that the HPU may schedule another handler (PtlHandlerYield).
// The runtime models massively-threaded HPUs implicitly, so this only
// charges its instruction cost.
func (c *Ctx) Yield() { c.Charge(CostYield) }

// Scratch returns an n-byte zeroed staging buffer valid until this handler
// invocation returns. Buffers come from a grow-only per-runtime arena, so
// steady-state handler staging (e.g. the RAID XOR diff buffers) allocates
// nothing. The buffer models HPU-local working memory and must not be
// retained past the handler — the next invocation reuses the region.
func (c *Ctx) Scratch(n int) []byte {
	need := c.scratchOff + n
	if cap(c.rt.scratch) < need {
		grow := 2 * cap(c.rt.scratch)
		if grow < need {
			grow = need
		}
		c.rt.scratch = make([]byte, grow)
	}
	s := c.rt.scratch[c.scratchOff:need:need]
	c.scratchOff = need
	clear(s)
	return s
}

// fail records the first action error.
func (c *Ctx) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// sized records and returns the action error of op unless local is a
// transfer of n bytes: nil, which is n bytes without data, or a buffer
// holding exactly n bytes. Either is charged and reserved as n bytes.
func (c *Ctx) sized(op string, local []byte, n int) error {
	if n >= 0 && (local == nil || len(local) == n) {
		return nil
	}
	err := fmt.Errorf("core: %s of %d bytes from a buffer of %d", op, n, len(local))
	c.fail(err)
	return err
}

// hostRange returns the host region of space and, unless [offset,
// offset+n) lies wholly inside it, records and returns the action error.
func (c *Ctx) hostRange(space MemSpace, offset int64, n int, op string) (Region, error) {
	r := c.me.HostMem
	if space == HandlerHostMem {
		r = c.me.HandlerHostMem
	}
	err := r.Check(op, offset, n)
	if err != nil {
		c.fail(err)
	}
	return r, err
}

// DMAToHostB writes the n bytes of local to host memory at offset
// (blocking write: PtlHandlerDMAToHostB); a nil local writes n bytes
// without data, and any other must hold exactly n. The HPU blocks only for
// the initiation of the posted write; the data becomes visible one bus
// latency later.
func (c *Ctx) DMAToHostB(local []byte, n int, offset int64, space MemSpace) {
	c.Charge(CostDMAIssue)
	if c.sized("DMAToHost", local, n) != nil {
		return
	}
	r, err := c.hostRange(space, offset, n, "DMAToHost")
	if err != nil {
		return
	}
	free, visible := c.rt.Node.Bus.Write(c.now, n)
	copy(r.Bytes(offset, n), local)
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, visible, "wr")
	c.now = free
	if visible > c.lastVisible {
		c.lastVisible = visible
	}
}

// DMAToHostVec scatters the stream range [streamOff, streamOff+n) of the
// vector layout v into host memory at base, from the packed bytes local
// under DMAToHostB's rule for local and n, as a vectorized DMA issue: one
// descriptor chain whose per-transaction cost — perSegCycles of address
// arithmetic plus CostDMAIssue of descriptor programming plus the
// transaction's bus occupancy, per touched block — is charged exactly as
// a block-at-a-time DMAToHostB loop would charge it. Each transaction is a
// separate bus reservation, so concurrent initiators interleave with the
// chain precisely as they would with discrete writes: the determinism
// contract (ARCHITECTURE.md) requires the vectorized path to be
// time-indistinguishable from the loop it replaces. What the vectorization
// removes is the simulator-side cost: no per-segment []datatype.Segment
// materialization, no per-segment handler bookkeeping, no copies for
// timing-only (nil local) scatters.
//
// Bounds are validated up front against the layout's host span (segment
// offsets are monotone for Stride >= Blocksize); a violation records the
// action error and issues nothing — unlike a hand-rolled loop, a chain
// never partially lands.
func (c *Ctx) DMAToHostVec(local []byte, v datatype.Vector, streamOff, n int, base int64, space MemSpace, perSegCycles int64) {
	if c.sized("DMAToHostVec", local, n) != nil {
		return
	}
	nsegs, bytes, _, _ := v.SegmentStats(streamOff, n)
	if nsegs == 0 {
		return
	}
	first := base + v.HostOffset(streamOff)
	last := base + v.HostOffset(streamOff+bytes-1) + 1
	r, err := c.hostRange(space, first, int(last-first), "DMAToHostVec")
	if err != nil {
		return
	}
	bus := c.rt.Node.Bus
	rec := c.rt.C.Rec.Enabled()
	pos := 0
	v.ForEachSegment(streamOff, bytes, func(off int64, ln int) bool {
		c.Charge(perSegCycles)
		c.Charge(CostDMAIssue)
		free, visible := bus.Write(c.now, ln)
		if local != nil {
			copy(r.Bytes(base+off, ln), local[pos:pos+ln])
			pos += ln
		}
		if rec {
			c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, visible, "wr")
		}
		c.now = free
		if visible > c.lastVisible {
			c.lastVisible = visible
		}
		return true
	})
}

// DMAFromHostB copies host memory at offset into local (blocking read:
// PtlHandlerDMAFromHostB). The HPU blocks for two bus latencies plus the
// transfer, per §4.3.
func (c *Ctx) DMAFromHostB(offset int64, local []byte, space MemSpace) {
	c.Charge(CostDMAIssue)
	r, err := c.hostRange(space, offset, len(local), "DMAFromHost")
	if err != nil {
		return
	}
	ready := c.rt.Node.Bus.Read(c.now, len(local))
	r.Read(offset, local)
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, ready, "rd")
	c.now = ready
}

// DMAToHostNB is the nonblocking variant of DMAToHostB, with the same rule
// for local and n; the returned handle completes when the data is visible
// in host memory. Handles are plain values — keep them on the handler's
// stack (they are only meaningful within the invocation that issued them),
// so discarding one, as fire-and-forget deposits do, costs nothing.
func (c *Ctx) DMAToHostNB(local []byte, n int, offset int64, space MemSpace) DMAHandle {
	c.Charge(CostDMAIssue + CostDMAHandle)
	if c.sized("DMAToHostNB", local, n) != nil {
		return DMAHandle{done: c.now}
	}
	r, err := c.hostRange(space, offset, n, "DMAToHostNB")
	if err != nil {
		return DMAHandle{done: c.now}
	}
	_, visible := c.rt.Node.Bus.Write(c.now, n)
	copy(r.Bytes(offset, n), local)
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, visible, "wr-nb")
	if visible > c.lastVisible {
		c.lastVisible = visible
	}
	return DMAHandle{done: visible}
}

// DMAFromHostNB is the nonblocking variant of DMAFromHostB. The simulation
// performs the data copy eagerly; timing is carried by the (value) handle.
func (c *Ctx) DMAFromHostNB(offset int64, local []byte, space MemSpace) DMAHandle {
	c.Charge(CostDMAIssue + CostDMAHandle)
	r, err := c.hostRange(space, offset, len(local), "DMAFromHostNB")
	if err != nil {
		return DMAHandle{done: c.now}
	}
	ready := c.rt.Node.Bus.Read(c.now, len(local))
	r.Read(offset, local)
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, ready, "rd-nb")
	return DMAHandle{done: ready}
}

// DMATest reports whether a nonblocking DMA has completed (PtlHandlerDMATest).
func (c *Ctx) DMATest(h *DMAHandle) bool {
	c.Charge(CostBranch)
	return h.done <= c.now
}

// DMAWait blocks until a nonblocking DMA completes (PtlHandlerDMAWait).
func (c *Ctx) DMAWait(h *DMAHandle) {
	c.Charge(CostBranch)
	if h.done > c.now {
		c.now = h.done
	}
	h.used = true
}

// DMACAS is an atomic compare-and-swap on 8 naturally-aligned bytes of host
// memory (PtlHandlerDMACASNB's blocking core). It returns the previous value
// and whether the swap happened.
func (c *Ctx) DMACAS(offset int64, cmpval, swapval uint64, space MemSpace) (prev uint64, swapped bool) {
	c.Charge(CostDMAIssue)
	r, err := c.hostRange(space, offset, 8, "DMACAS")
	if err != nil {
		return 0, false
	}
	done := c.rt.Node.Bus.Atomic(c.now, 8)
	prev = r.Uint64(offset)
	if prev == cmpval {
		r.PutUint64(offset, swapval)
		swapped = true
	}
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, done, "cas")
	c.now = done
	if done > c.lastVisible {
		c.lastVisible = done
	}
	return prev, swapped
}

// DMAFetchAdd atomically adds inc to 8 bytes of host memory and returns the
// previous value (PtlHandlerDMAFetchAddNB's blocking core).
func (c *Ctx) DMAFetchAdd(offset int64, inc uint64, space MemSpace) (prev uint64) {
	c.Charge(CostDMAIssue)
	r, err := c.hostRange(space, offset, 8, "DMAFetchAdd")
	if err != nil {
		return 0
	}
	done := c.rt.Node.Bus.Atomic(c.now, 8)
	prev = r.Uint64(offset)
	r.PutUint64(offset, prev+inc)
	c.rt.C.Rec.Record(c.rt.Node.Rank, "DMA", c.now, done, "fadd")
	c.now = done
	if done > c.lastVisible {
		c.lastVisible = done
	}
	return prev
}

// CAS is an atomic compare-and-swap on HPU shared memory (PtlHandlerCAS).
func (c *Ctx) CAS(offset int64, cmpval, swapval uint64) bool {
	c.Charge(CostAtomic)
	st := c.State()
	if offset < 0 || offset+8 > int64(len(st)) {
		c.fail(fmt.Errorf("core: CAS at %d outside HPU memory of %d bytes", offset, len(st)))
		return false
	}
	if binary.LittleEndian.Uint64(st[offset:]) != cmpval {
		return false
	}
	binary.LittleEndian.PutUint64(st[offset:], swapval)
	return true
}

// FAdd atomically adds inc to HPU shared memory and returns the previous
// value (PtlHandlerFAdd).
func (c *Ctx) FAdd(offset int64, inc uint64) uint64 {
	c.Charge(CostAtomic)
	st := c.State()
	if offset < 0 || offset+8 > int64(len(st)) {
		c.fail(fmt.Errorf("core: FAdd at %d outside HPU memory of %d bytes", offset, len(st)))
		return 0
	}
	prev := binary.LittleEndian.Uint64(st[offset:])
	binary.LittleEndian.PutUint64(st[offset:], prev+inc)
	return prev
}

// U64 loads 8 bytes of HPU memory, charging one scratchpad access cycle.
func (c *Ctx) U64(offset int64) uint64 {
	c.Charge(1)
	st := c.State()
	if offset < 0 || offset+8 > int64(len(st)) {
		c.fail(fmt.Errorf("core: load at %d outside HPU memory", offset))
		return 0
	}
	return binary.LittleEndian.Uint64(st[offset:])
}

// SetU64 stores 8 bytes of HPU memory, charging one scratchpad access cycle.
func (c *Ctx) SetU64(offset int64, v uint64) {
	c.Charge(1)
	st := c.State()
	if offset < 0 || offset+8 > int64(len(st)) {
		c.fail(fmt.Errorf("core: store at %d outside HPU memory", offset))
		return
	}
	binary.LittleEndian.PutUint64(st[offset:], v)
}

// PutFromDevice sends a single-packet message of the n bytes of data from
// HPU memory (PtlHandlerPutFromDevice); a nil data sends n bytes without
// data, and any other must hold exactly n. The HPU blocks until the packet
// is injected: the NIC uses HPU memory as the outgoing buffer.
func (c *Ctx) PutFromDevice(data []byte, n int, target, ptIndex int, matchBits uint64, remoteOffset int64, hdrData uint64) error {
	c.Charge(CostPut)
	if err := c.sized("PutFromDevice", data, n); err != nil {
		return err
	}
	if n > c.rt.C.P.MTU {
		err := fmt.Errorf("core: PutFromDevice of %d bytes exceeds max_payload_size %d", n, c.rt.C.P.MTU)
		c.fail(err)
		return err
	}
	c.put(data, n, target, ptIndex, matchBits, remoteOffset, hdrData)
	if free := c.rt.Node.Egress.FreeAt(); free > c.now {
		c.now = free
	}
	return nil
}

// PutFromHost enqueues a put whose data originates in host memory
// (PtlHandlerPutFromHost). The call is nonblocking for the HPU; the message
// enters the normal send queue as if posted by the host, without host-CPU
// involvement. Consistent with the paper's accounting (§4.3 charges DMA on
// delivery into host memory; source-side send-queue fetches are omitted,
// as in the RDMA/P4 baselines), no source DMA time is charged here. From a
// timing-only region the message carries no data.
func (c *Ctx) PutFromHost(space MemSpace, offset int64, length int, target, ptIndex int, matchBits uint64, remoteOffset int64, hdrData uint64) error {
	c.Charge(CostPut)
	r, err := c.hostRange(space, offset, length, "PutFromHost")
	if err != nil {
		return err
	}
	c.put(r.Bytes(offset, length), length, target, ptIndex, matchBits, remoteOffset, hdrData)
	return nil
}

// put sends a handler-issued put of n bytes, data or none (see
// netsim.Message.SetPayload), at the handler's current time.
func (c *Ctx) put(data []byte, n int, target, ptIndex int, matchBits uint64, remoteOffset int64, hdrData uint64) {
	m := c.rt.C.AllocMessage()
	m.Type = netsim.OpPut
	m.Src = c.rt.Node.Rank
	m.Dst = target
	m.PTIndex = ptIndex
	m.MatchBits = matchBits
	m.Offset = remoteOffset
	m.HdrData = hdrData
	m.SetPayload(data, n)
	c.rt.C.Send(c.now, m)
}

// Get issues a handler get (PtlHandlerGet): fetch req.Length bytes from the
// target ME and deposit them into this ME's host memory at req.LocalOffset,
// where all of them must fit. Requires an MEContext.Owner to plumb the get
// through the Portals layer.
func (c *Ctx) Get(req GetRequest) error {
	c.Charge(CostGet)
	if c.me.Owner == nil {
		err := fmt.Errorf("core: Get issued but no MEOwner installed to plumb it")
		c.fail(err)
		return err
	}
	if _, err := c.hostRange(MEHostMem, req.LocalOffset, req.Length, "Get"); err != nil {
		return err
	}
	c.me.Owner.MEIssueGet(c.now, req)
	return nil
}

// CTInc atomically increments the counter attached to the ME
// (PtlHandlerCTInc), if the upper layer installed an owner.
func (c *Ctx) CTInc(n uint64) {
	c.Charge(CostAtomic)
	if c.me.Owner != nil {
		c.me.Owner.MECTInc(c.now, n)
	}
}

// SteerTo overrides the offset at which this message's default action
// deposits into the ME — the "advanced data steering" a header handler
// performs (e.g. the KV-store insert of §5.4 choosing the hash-chain slot).
// Only meaningful from a header handler that returns Proceed.
func (c *Ctx) SteerTo(offset int64) {
	c.Charge(CostBranch)
	c.msg.Offset = offset
}
