// Package portals implements the Portals 4 network programming interface
// (§3.1) over the simulated NIC, extended with the P4sPIN handler interface
// of §3.2 / Appendix B. It provides logical network interfaces with matched
// portal table entries, memory descriptors, event queues, counting events
// with triggered operations, locally-managed offsets, and flow control —
// the substrate both the paper's baselines (RDMA-style puts, triggered-op
// collectives) and sPIN itself are built on.
package portals

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Limits mirrors the NI limits structure with the sPIN additions of
// Appendix B.2.1.
type Limits struct {
	MaxUserHdrSize        int
	MaxPayloadSize        int
	MaxHandlerMem         int
	MaxInitialState       int
	MinFragmentationLimit int
	MaxCyclesPerByte      int
	MaxPTEntries          int
}

// DefaultLimits returns the limits used throughout the paper's experiments.
func DefaultLimits(mtu int) Limits {
	return Limits{
		MaxUserHdrSize:        64,
		MaxPayloadSize:        mtu,
		MaxHandlerMem:         core.DefaultHPUMemCapacity,
		MaxInitialState:       4096,
		MinFragmentationLimit: 64,
		MaxCyclesPerByte:      16,
		MaxPTEntries:          64,
	}
}

// ListKind selects the ME list of a portal table entry.
type ListKind int

const (
	// PriorityList is searched first.
	PriorityList ListKind = iota
	// OverflowList catches messages no priority entry matched
	// (unexpected messages).
	OverflowList
)

// PTEntry is one portal table entry: two match lists plus enable state.
type PTEntry struct {
	Index    int
	Enabled  bool
	EQ       *EQ
	priority []*ME
	overflow []*ME
}

// AtomicOp enumerates the Portals atomic operations this implementation
// supports.
type AtomicOp uint8

const (
	// AtomicSum adds 64-bit little-endian integers elementwise.
	AtomicSum AtomicOp = iota + 1
	// AtomicBXOR xors bytes elementwise.
	AtomicBXOR
	// AtomicSwap replaces target bytes and returns nothing (put-like).
	AtomicSwap
)

// pendingOp tracks a get or ack outstanding at the initiator. Instances are
// drawn from NI.opFree and recycled when the operation completes (or when
// the NI resets with operations still outstanding).
type pendingOp struct {
	dest    []byte
	destOff int64
	md      *MD
	total   int
	arrived int
	visible sim.Time
}

// sendNote carries one put's send-side completion (MD counter increment and
// SEND event) through Message.Delivered; pooled on the NI.
type sendNote struct {
	ni     *NI
	md     *MD
	length int
}

// runSendDelivered is the Message.Delivered target for puts with an MD
// counter or event queue.
func runSendDelivered(a any) {
	sn := a.(*sendNote)
	ni, md, length := sn.ni, sn.md, sn.length
	ni.snFree.Put(sn)
	now := ni.C.Eng.Now()
	if md.CT != nil {
		md.CT.Inc(now, 1)
	}
	if md.EQ != nil {
		md.EQ.Append(Event{Type: EventSend, At: now, Length: length})
	}
}

// NI is a logical network interface bound to one node. It implements
// netsim.Receiver and owns the node's sPIN runtime.
type NI struct {
	C      *netsim.Cluster
	Node   *netsim.Node
	RT     *core.Runtime
	Limits Limits

	pt          map[int]*PTEntry
	outstanding map[uint64]*pendingOp

	// rsFree, opFree, snFree, and toFree recycle recvState, pendingOp,
	// sendNote, and triggeredOp objects.
	rsFree sim.FreeList[recvState]
	opFree sim.FreeList[pendingOp]
	snFree sim.FreeList[sendNote]
	toFree sim.FreeList[triggeredOp]
	// pteFree recycles portal table entries (their ME lists keep capacity);
	// eqLive/ctLive track queues and counters handed out by NewEQ/NewCT so
	// Reset can reclaim them onto eqFree/ctFree. These pools stay
	// hand-rolled: their records keep storage across reuse.
	pteFree []*PTEntry
	eqLive  []*EQ
	eqFree  []*EQ
	ctLive  []*CT
	ctFree  []*CT

	// Retrans configures reliable puts (see retrans.go); rtx maps the
	// current attempt's message ID to its retransmit record, rtxFree
	// recycles records.
	Retrans RetransConfig
	rtx     map[uint64]*rtxRecord
	rtxFree sim.FreeList[rtxRecord]

	// Drops counts packets discarded because no ME matched or the portal
	// was disabled.
	Drops uint64
	// Retransmits and RetransFailures count reliable-put resends and
	// abandoned reliable puts at this initiator.
	Retransmits     uint64
	RetransFailures uint64
}

// NewNI creates the logical interface for rank and installs it as the
// node's packet receiver.
func NewNI(c *netsim.Cluster, rank int) *NI {
	node := c.Nodes[rank]
	ni := &NI{
		C:           c,
		Node:        node,
		RT:          core.NewRuntime(c, node),
		Limits:      DefaultLimits(c.P.MTU),
		pt:          make(map[int]*PTEntry),
		outstanding: make(map[uint64]*pendingOp),
		rtx:         make(map[uint64]*rtxRecord),
	}
	node.Recv = ni
	return ni
}

// Reset returns the interface to its post-construction state — no portal
// table entries, no outstanding operations, no in-flight receives, zero
// drops — and resets the attached sPIN runtime. netsim.Cluster.Reset
// resets only the transport, so whoever reuses a cluster resets its NIs
// too (bench.Env does, in node order). The free lists are kept (records
// are zeroed when recycled), and map storage is cleared in place so a
// reused NI allocates nothing to reach its pristine state.
func (ni *NI) Reset() {
	// Recycle the portal table entries and the EQ/CT objects handed out by
	// NewEQ/NewCT. Map iteration order is irrelevant (pool entries are
	// reset when reissued, so recycle order changes allocation behaviour
	// only), and reclaimed EQs/CTs are returned to their post-construction
	// state — a reused object is indistinguishable from a fresh one in
	// simulated time.
	for _, pte := range ni.pt { //simlint:unordered-ok recycle order changes allocation behaviour only; entries are reset when reissued
		pte.EQ = nil
		pte.priority = pte.priority[:0]
		pte.overflow = pte.overflow[:0]
		ni.pteFree = append(ni.pteFree, pte)
	}
	clear(ni.pt)
	for _, q := range ni.eqLive {
		q.recycle()
		ni.eqFree = append(ni.eqFree, q)
	}
	ni.eqLive = ni.eqLive[:0]
	for _, ct := range ni.ctLive {
		ct.Reset()
		ni.ctFree = append(ni.ctFree, ct)
	}
	ni.ctLive = ni.ctLive[:0]
	ni.releaseInFlight()
	ni.Drops = 0
	ni.Retrans = RetransConfig{}
	ni.RT.Reset()
}

// NewEQ returns an event queue on the NI's engine, drawn from an NI-owned
// free list: the queue (and its event/dispatch storage) is reclaimed by the
// next NI.Reset, so setup-heavy sweeps that rebuild their portal rigs per
// measurement point stop allocating queues once warm. Entries installed for
// the lifetime of a long-lived service (raidsim) should use portals.NewEQ
// directly — NI.Reset must not reclaim those.
func (ni *NI) NewEQ() *EQ {
	var q *EQ
	if n := len(ni.eqFree); n > 0 {
		q = ni.eqFree[n-1]
		ni.eqFree = ni.eqFree[:n-1]
	} else {
		q = NewEQ(ni.C.Eng)
	}
	ni.eqLive = append(ni.eqLive, q)
	return q
}

// NewCT is NewEQ's counting-event counterpart.
func (ni *NI) NewCT() *CT {
	var ct *CT
	if n := len(ni.ctFree); n > 0 {
		ct = ni.ctFree[n-1]
		ni.ctFree = ni.ctFree[:n-1]
	} else {
		ct = NewCT(ni.C.Eng)
	}
	ni.ctLive = append(ni.ctLive, ct)
	return ct
}

// releaseInFlight returns outstanding operations to the op pool and clears
// the in-flight maps in place. Map iteration order is irrelevant here: pool
// entries are zeroed when recycled, so recycle order changes allocation
// behaviour only, never simulated time.
func (ni *NI) releaseInFlight() {
	for _, op := range ni.outstanding { //simlint:unordered-ok recycle order changes allocation behaviour only; ops are zeroed when recycled
		ni.opFree.Put(op)
	}
	clear(ni.outstanding)
	// Records still in rtx each have exactly one pending timer, and the
	// engine reset that precedes an NI reset dropped those events, so the
	// records can be recycled here. (Acked records awaiting their timer are
	// abandoned to the GC, like any state captured only by dropped events.)
	for _, rec := range ni.rtx { //simlint:unordered-ok recycle order changes allocation behaviour only; records are zeroed when recycled
		ni.rtxFree.Put(rec)
	}
	clear(ni.rtx)
	ni.Retransmits = 0
	ni.RetransFailures = 0
}

// ResetInFlight returns the interface to an idle state while keeping its
// installed configuration: portal table entries stay allocated and their
// MEs stay appended (restored to just-appended state — relinked, locally
// managed offsets rewound, HPU memory re-initialized, attached EQ/CT
// cleared), and handler scratchpad allocations survive. Outstanding
// operations and drop counts are cleared (the state of receives still in
// flight rides in their messages' RecvState slots and is abandoned with
// them), and the sPIN runtime's transient state is reset. Long-lived
// services (raidsim) use it to replay on one system repeatedly; the
// determinism contract of netsim.Cluster.Reset applies: an interface reset
// this way behaves bit-identically in simulated time to one freshly set up.
func (ni *NI) ResetInFlight() {
	ni.releaseInFlight()
	ni.Drops = 0
	for _, pte := range ni.pt { //simlint:unordered-ok per-entry in-place resets are independent; no cross-entry state or allocation
		pte.Enabled = true
		for _, me := range pte.priority {
			me.resetState()
		}
		for _, me := range pte.overflow {
			me.resetState()
		}
	}
	ni.RT.ResetInFlight()
}

// Setup creates one NI per node and returns them.
func Setup(c *netsim.Cluster) []*NI {
	nis := make([]*NI, len(c.Nodes))
	for i := range c.Nodes {
		nis[i] = NewNI(c, i)
	}
	return nis
}

// PTAlloc allocates portal table entry index with an optional event queue
// for full events and flow-control notification.
func (ni *NI) PTAlloc(index int, eq *EQ) (*PTEntry, error) {
	if index < 0 || index >= ni.Limits.MaxPTEntries {
		return nil, fmt.Errorf("portals: PT index %d out of range", index)
	}
	if _, dup := ni.pt[index]; dup {
		return nil, fmt.Errorf("portals: PT index %d already allocated", index)
	}
	var pte *PTEntry
	if n := len(ni.pteFree); n > 0 {
		pte = ni.pteFree[n-1]
		ni.pteFree = ni.pteFree[:n-1]
		pte.Index, pte.Enabled, pte.EQ = index, true, eq
	} else {
		pte = &PTEntry{Index: index, Enabled: true, EQ: eq}
	}
	ni.pt[index] = pte
	return pte, nil
}

// PTEnable re-enables a portal entry after flow control.
func (ni *NI) PTEnable(index int) {
	if pte := ni.pt[index]; pte != nil {
		pte.Enabled = true
	}
}

// PTDisable disables a portal entry (as flow control does).
func (ni *NI) PTDisable(index int) {
	if pte := ni.pt[index]; pte != nil {
		pte.Enabled = false
	}
}

// MD is a memory descriptor: local memory an initiator sends from or
// receives get replies into, with optional counter and event queue.
type MD struct {
	Buf []byte
	CT  *CT
	EQ  *EQ
}

// MDBind creates a memory descriptor over buf.
func (ni *NI) MDBind(buf []byte, ct *CT, eq *EQ) *MD {
	return &MD{Buf: buf, CT: ct, EQ: eq}
}

// PutArgs collects the arguments of PtlPut and its triggered/handler
// variants.
type PutArgs struct {
	MD           *MD
	LocalOffset  int64
	Length       int
	Target       int
	PTIndex      int
	MatchBits    uint64
	RemoteOffset int64
	HdrData      uint64
	UserHdr      []byte
	AckReq       bool
	// NoData sends a timing-only message (no payload bytes simulated);
	// used by large-scale trace replays.
	NoData bool
}

// validatePut checks a put's arguments without touching any pool: an
// oversized user header, an out-of-cluster target, or a transfer outside
// the MD. buildPut runs it before drawing from the message free list, and
// the triggered-operation arming path runs it so arguments that could never
// fire are rejected when the operation is armed, not by a panic deep in the
// event loop at trigger time.
func (ni *NI) validatePut(a PutArgs) error {
	if len(a.UserHdr) > ni.Limits.MaxUserHdrSize {
		return fmt.Errorf("portals: user header of %d bytes exceeds limit %d", len(a.UserHdr), ni.Limits.MaxUserHdrSize)
	}
	if a.Target < 0 || a.Target >= len(ni.C.Nodes) {
		return fmt.Errorf("portals: put target %d outside cluster of %d nodes", a.Target, len(ni.C.Nodes))
	}
	if !a.NoData && a.MD != nil {
		if a.LocalOffset < 0 || a.LocalOffset+int64(a.Length) > int64(len(a.MD.Buf)) {
			return fmt.Errorf("portals: put [%d,%d) outside MD of %d bytes", a.LocalOffset, a.LocalOffset+int64(a.Length), len(a.MD.Buf))
		}
	}
	return nil
}

// validateGet is validatePut's get-side counterpart.
func (ni *NI) validateGet(a GetArgs) error {
	if a.Target < 0 || a.Target >= len(ni.C.Nodes) {
		return fmt.Errorf("portals: get target %d outside cluster of %d nodes", a.Target, len(ni.C.Nodes))
	}
	if a.MD != nil {
		if a.LocalOffset < 0 || a.LocalOffset+int64(a.Length) > int64(len(a.MD.Buf)) {
			return fmt.Errorf("portals: get reply [%d,%d) outside MD of %d bytes", a.LocalOffset, a.LocalOffset+int64(a.Length), len(a.MD.Buf))
		}
	}
	return nil
}

// buildPut assembles a pooled put message. Validation happens before the
// message is drawn from the cluster's free list, so error paths allocate
// and leak nothing.
func (ni *NI) buildPut(a PutArgs) (*netsim.Message, error) {
	if err := ni.validatePut(a); err != nil {
		return nil, err
	}
	stage := !a.NoData && a.MD != nil
	m := ni.C.AllocMessage()
	m.Type = netsim.OpPut
	m.Src = ni.Node.Rank
	m.Dst = a.Target
	m.PTIndex = a.PTIndex
	m.MatchBits = a.MatchBits
	m.Offset = a.RemoteOffset
	m.HdrData = a.HdrData
	m.UserHdr = a.UserHdr
	m.Length = a.Length
	m.AckReq = a.AckReq
	if stage {
		copy(m.StageData(a.Length), a.MD.Buf[a.LocalOffset:])
	}
	m.ID = ni.C.NextID()
	if a.AckReq {
		op := ni.opFree.Get()
		op.md = a.MD
		op.total = 1
		ni.outstanding[m.ID] = op
	}
	if a.MD != nil && (a.MD.CT != nil || a.MD.EQ != nil) {
		sn := ni.snFree.Get()
		sn.ni, sn.md, sn.length = ni, a.MD, a.Length
		m.Delivered = runSendDelivered
		m.DeliveredArg = sn
	}
	return m, nil
}

// Put posts a put operation from the host at time now: the host core is
// charged the injection overhead o, then the NIC streams the message. It
// returns the time the posting core is free.
func (ni *NI) Put(now sim.Time, a PutArgs) (sim.Time, error) {
	m, err := ni.buildPut(a)
	if err != nil {
		return now, err
	}
	return ni.C.HostSend(now, m), nil
}

// DevicePut injects a put directly from the NIC (triggered operations and
// protocol machinery): no host-core overhead.
func (ni *NI) DevicePut(now sim.Time, a PutArgs) error {
	m, err := ni.buildPut(a)
	if err != nil {
		return err
	}
	ni.C.Send(now, m)
	return nil
}

// GetArgs collects the arguments of PtlGet.
type GetArgs struct {
	MD           *MD
	LocalOffset  int64
	Length       int
	Target       int
	PTIndex      int
	MatchBits    uint64
	RemoteOffset int64
	HdrData      uint64
}

func (ni *NI) buildGet(a GetArgs) (*netsim.Message, error) {
	if err := ni.validateGet(a); err != nil {
		return nil, err
	}
	m := ni.C.AllocMessage()
	m.Type = netsim.OpGet
	m.Src = ni.Node.Rank
	m.Dst = a.Target
	m.PTIndex = a.PTIndex
	m.MatchBits = a.MatchBits
	m.Offset = a.RemoteOffset
	m.HdrData = a.HdrData
	m.GetLength = a.Length
	m.ID = ni.C.NextID()
	op := ni.opFree.Get()
	op.md = a.MD
	op.destOff = a.LocalOffset
	if a.MD != nil {
		op.dest = a.MD.Buf
	}
	op.total = ni.C.P.Packets(a.Length)
	ni.outstanding[m.ID] = op
	return m, nil
}

// Get posts a get from the host (charges o) and returns when the core is
// free. The reply lands in the MD at LocalOffset; completion raises a reply
// event / CT increment on the MD.
func (ni *NI) Get(now sim.Time, a GetArgs) (sim.Time, error) {
	m, err := ni.buildGet(a)
	if err != nil {
		return now, err
	}
	return ni.C.HostSend(now, m), nil
}

// DeviceGet injects a get from the NIC.
func (ni *NI) DeviceGet(now sim.Time, a GetArgs) error {
	m, err := ni.buildGet(a)
	if err != nil {
		return err
	}
	ni.C.Send(now, m)
	return nil
}

// Atomic posts an atomic operation (host-initiated). The payload in the MD
// is applied to the target ME with the given operation.
func (ni *NI) Atomic(now sim.Time, a PutArgs, op AtomicOp) (sim.Time, error) {
	m, err := ni.buildPut(a)
	if err != nil {
		return now, err
	}
	m.Type = netsim.OpAtomic
	m.AtomicOp = uint8(op)
	return ni.C.HostSend(now, m), nil
}

// triggeredOp is one armed triggered operation: the arguments captured at
// arm time plus the NI that will fire them. Records are drawn from
// NI.toFree and scheduled through CT.OnReachCall, so arming a triggered
// operation on a warm NI allocates nothing — the hot half of the paper's
// triggered-op collectives (Fig. 5a's P4 broadcast arms one per child per
// message). Exactly one of put/get is meaningful, selected by isGet.
type triggeredOp struct {
	ni    *NI
	put   PutArgs
	get   GetArgs
	isGet bool
}

// runTriggeredOp is the CT.OnReachCall entry point for fired triggered
// operations. The record is recycled before the operation is issued (the
// device put/get may arm new triggered operations); arguments were
// validated at arm time, so a failure here indicates NI state corrupted
// since arming — an invariant violation, not an input error.
func runTriggeredOp(a any) {
	op := a.(*triggeredOp)
	ni, put, get, isGet := op.ni, op.put, op.get, op.isGet
	ni.toFree.Put(op)
	now := ni.C.Eng.Now()
	var err error
	if isGet {
		err = ni.DeviceGet(now, get)
	} else {
		err = ni.DevicePut(now, put)
	}
	if err != nil {
		panic(fmt.Sprintf("portals: armed triggered operation failed to fire: %v", err))
	}
}

// ArmTriggeredPut arms a put that fires from the NIC when ct reaches
// threshold (PtlTriggeredPut). The data is read from the MD when the
// trigger fires, matching triggered-operation semantics. Arguments are
// validated now, at arm time: an operation that could never fire (bad
// target, transfer outside the MD) is reported here as an error instead of
// panicking inside the event loop when the counter trips.
func (ni *NI) ArmTriggeredPut(a PutArgs, ct *CT, threshold uint64) error {
	if err := ni.validatePut(a); err != nil {
		return err
	}
	op := ni.toFree.Get()
	op.ni, op.put = ni, a
	ct.OnReachCall(threshold, runTriggeredOp, op)
	return nil
}

// ArmTriggeredGet arms a get that fires when ct reaches threshold,
// validating the arguments at arm time like ArmTriggeredPut.
func (ni *NI) ArmTriggeredGet(a GetArgs, ct *CT, threshold uint64) error {
	if err := ni.validateGet(a); err != nil {
		return err
	}
	op := ni.toFree.Get()
	op.ni, op.get, op.isGet = ni, a, true
	ct.OnReachCall(threshold, runTriggeredOp, op)
	return nil
}
