package netsim

import (
	"fmt"

	"repro/internal/membus"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// OpType distinguishes the network transaction kinds of Portals 4 (§3.1).
type OpType uint8

const (
	OpPut OpType = iota
	OpGet
	OpGetResponse
	OpAtomic
	OpAck
)

func (o OpType) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpGetResponse:
		return "get-resp"
	case OpAtomic:
		return "atomic"
	case OpAck:
		return "ack"
	}
	return fmt.Sprintf("op(%d)", uint8(o)) //simlint:alloc-ok unreachable fallback for invalid op values; known ops return interned literals
}

// Message is one network transaction. Data may be nil for timing-only
// simulations (large trace replays); when present, receivers deposit the
// actual bytes so tests can verify end-to-end content.
type Message struct {
	ID        uint64
	Type      OpType
	Src, Dst  int
	PTIndex   int
	MatchBits uint64
	Offset    int64 // requested offset in the target ME
	HdrData   uint64
	UserHdr   []byte // user-defined header (first bytes of payload, §3.2.1)
	Length    int    // payload length in bytes (excluding UserHdr)
	Data      []byte // optional payload bytes, len == Length when non-nil

	// GetLength is the number of bytes requested by an OpGet.
	GetLength int
	// AtomicOp selects the operation of an OpAtomic message (values are
	// defined by the Portals layer).
	AtomicOp uint8
	// AckReq asks the target to send an OpAck back to the initiator when
	// the message completes.
	AckReq bool
	// ReplyTo carries the originating message for OpGetResponse/OpAck so
	// the requester can correlate completions.
	ReplyTo uint64

	// Delivered, if set, runs at the source when the last packet has been
	// injected (send-side completion, e.g. MD events): the transport
	// schedules the pre-bound pair Delivered(DeliveredArg) straight onto the
	// source engine with sim.Engine.ScheduleCall, so completion costs no
	// per-message closure. The callback reads the time from its own engine.
	// The pending event holds DeliveredArg, not the message.
	Delivered    func(any)
	DeliveredArg any

	// RecvState is the destination receive stack's per-message state: the
	// receiver sets it at the header packet and reads it back on every
	// later packet of the message, instead of keying a map by *Message.
	// The transport clears it when a send's packet walk starts and zeroes
	// it when it recycles a pooled message, so a header packet always
	// finds it nil, and a later packet finds nil only when the receiver
	// left it so (e.g. the header was dropped). It is written only on the
	// destination's engine, and only pointer-shaped values belong in it:
	// storing anything else boxes per message.
	RecvState any

	// buf is the message-owned payload staging buffer (see StageData).
	// Pooled messages keep its capacity across recycling, so steady-state
	// payload staging allocates nothing.
	buf []byte
	// pooled marks messages drawn from Cluster.AllocMessage: the transport
	// recycles them automatically once every packet has retired.
	pooled bool

	// track counts the packets of the current send that have not retired
	// yet (see Cluster.retire).
	track int
}

// StageData returns an n-byte payload buffer owned by the message and
// installs it as the message's Data. The buffer is grow-only scratch: its
// contents are unspecified, so callers must overwrite all n bytes. For
// pooled messages the capacity survives recycling, which is what makes
// payload staging on the hot path allocation-free in steady state.
func (m *Message) StageData(n int) []byte {
	if cap(m.buf) < n || m.buf == nil {
		m.buf = make([]byte, n) // non-nil even for n == 0: staged Data is
		// never nil, matching the timing-only (NoData) distinction.
	}
	m.Data = m.buf[:n:n]
	return m.Data
}

// Packet is one MTU-sized piece of a message.
//
// Packet memory is owned by the transport: packets are drawn from a
// cluster-wide free list when they arrive and recycled as soon as the
// destination's Receiver returns. Receivers must copy anything they need
// past the ReceivePacket call and must not retain the pointer.
type Packet struct {
	Msg    *Message
	Index  int  // 0-based packet number
	Offset int  // payload offset within the message
	Size   int  // payload bytes carried
	Header bool // true for the first packet (carries header + user header)
	Last   bool

	// corrupt marks a packet damaged by the impairment layer: it traverses
	// the wire and matching hardware, then fails the NIC CRC check and is
	// discarded before the Receiver sees it.
	corrupt bool

	// node is the destination, carried so the matched-packet event can be
	// scheduled without a closure.
	node *Node
}

// Receiver consumes matched packets at a node. The Portals layer implements
// this.
type Receiver interface {
	// ReceivePacket is called when the packet has cleared the NIC's
	// matching hardware at time now.
	ReceivePacket(now sim.Time, pkt *Packet)
}

// Node is one network endpoint: a host CPU, its NIC (egress + matching
// unit), and the NIC<->memory bus.
type Node struct {
	Rank    int
	Egress  *sim.Resource
	MatchHW *sim.Resource
	Bus     *membus.Bus
	Cores   *sim.Pool
	Recv    Receiver

	cluster *Cluster
	// sendSeq counts this node's sends. It feeds the priority key of every
	// walk event the node originates (see msgWalk.pri): a pure function of
	// the node's own traffic, so it is identical in serial and LP runs.
	sendSeq uint64
}

// Cluster wires n nodes onto one engine and transports packets between them.
//
// A cluster built by NewClusterLP is additionally partitioned into logical
// processes (LPs) for conservative parallel execution: the root cluster owns
// the full node slice and the shard clusters — one per LP, each with a
// private engine — own contiguous node ranges (Node.cluster names the
// owner). Send routes every message to the source node's owning shard, so
// serial and shard-local traffic take the same path; cross-shard traffic is
// parked in the source shard's outbox and injected into the destination
// shard's engine at the next window barrier (see lp.go and ARCHITECTURE.md
// "Parallel DES").
type Cluster struct {
	Eng    *sim.Engine
	P      Params
	Nodes  []*Node
	Rec    *timeline.Recorder // optional; nil disables recording
	nextID uint64

	// Parallel-DES wiring. A serial cluster leaves all of this zero; an LP
	// root has shards (and group) populated; a shard has root set and idBase
	// marking the high bits of its message IDs so per-shard NextID counters
	// stay globally unique.
	shards    []*Cluster
	root      *Cluster
	idBase    uint64
	lookahead sim.Time
	group     *sim.Windows
	outbox    []crossSend
	crossBuf  []crossSend // root-owned scratch for barrier flushes

	// pktFree, walkFree, and msgFree are engine-owned free lists. msgFree
	// is hand-rolled because a recycled message keeps its staging buffer
	// (see retire).
	pktFree  sim.FreeList[Packet]
	walkFree sim.FreeList[msgWalk]
	msgFree  []*Message

	// imp is the installed fault model (nil = perfect network), and linkSeq
	// counts packets per directed link, keying the impairment PRNG. Both are
	// touched only under impairment.
	imp     *Impairment
	linkSeq map[uint64]uint64

	// Faults counts injected faults and recovery work (see FaultStats).
	Faults FaultStats

	// Stats
	MessagesSent uint64
	PacketsSent  uint64
	BytesSent    uint64
}

// NewCluster builds n nodes with the given parameters on a fresh engine.
func NewCluster(n int, p Params) (*Cluster, error) {
	if err := p.Topo.Validate(n); err != nil {
		return nil, err
	}
	c := &Cluster{Eng: sim.NewEngine(), P: p}
	c.Nodes = make([]*Node, n)
	for i := range c.Nodes {
		c.Nodes[i] = &Node{
			Rank:    i,
			Egress:  sim.NewResource(fmt.Sprintf("egress-%d", i)),
			MatchHW: sim.NewResource(fmt.Sprintf("match-%d", i)),
			Bus:     membus.New(p.DMA),
			Cores:   sim.NewPool(fmt.Sprintf("cpu-%d", i), p.HostCores),
			cluster: c,
		}
	}
	return c, nil
}

// Reset returns the transport to its post-construction state so one
// cluster can serve an entire measurement sweep instead of a single point:
// the engine's clock, queue, and sequence counter restart at zero; every
// node's egress, matching unit, memory bus, and core pool go idle; the
// attached timeline recorder (if any) is cleared; and message IDs and
// statistics restart. Installed receivers are not touched: the layer that
// installed them resets them (bench.Env its Portals NIs, mpisim and
// raidsim their own receiver state in place). The engine-owned free lists
// (packets, walks, messages) are deliberately retained — that is the point
// of reuse — and cannot leak stale state because every pooled object is
// zeroed when it is recycled.
//
// Determinism contract: a reset cluster produces bit-identical simulated
// times to a freshly constructed one, because every input to the event
// order — the clock, the (time, seq) tie-breaks, and all busy-until
// trajectories — restarts exactly as construction leaves it. Free-list and
// map-bucket reuse changes only allocation behaviour, never simulated time;
// no simulation path iterates those maps.
func (c *Cluster) Reset() {
	for _, n := range c.Nodes {
		n.Egress.Reset()
		n.MatchHW.Reset()
		n.Bus.Reset()
		n.Cores.Reset()
		n.sendSeq = 0
	}
	c.Rec.Reset()
	c.resetEngineState()
	// An LP root cascades into every shard, so reset == fresh holds at any
	// partition count: shard clocks, sequence counters, per-link impairment
	// sequence numbers, and outboxes all restart exactly as construction
	// leaves them.
	for _, s := range c.shards {
		s.resetEngineState()
	}
}

// resetEngineState restarts one engine's share of the transport state —
// clock/queue/sequence, message IDs, statistics, impairment link counters,
// fault counters, and cross-shard outbox. Node hardware and the recorder
// are shared across shards and reset by Reset itself.
func (c *Cluster) resetEngineState() {
	c.Eng.Reset()
	c.nextID = 0
	c.MessagesSent = 0
	c.PacketsSent = 0
	c.BytesSent = 0
	clear(c.linkSeq)
	c.Faults = FaultStats{}
	c.outbox = c.outbox[:0]
}

// NextID returns a fresh message ID, unique across the whole cluster: each
// shard counts in its own idBase-tagged range (serial clusters count from
// zero, unchanged).
func (c *Cluster) NextID() uint64 {
	c.nextID++
	return c.idBase | c.nextID
}

// msgWalk drives the packet injections of one message through the engine as
// a single event chain: the walk delivers packet i at its arrival time and
// reschedules itself for packet i+1, instead of queueing n closures up
// front. Arrival times are reconstructed incrementally — every non-final
// packet carries a full MTU, so its egress occupancy is the same — and the
// event sequence numbers are reserved at Send time, which makes the event
// order bit-identical to eager per-packet scheduling.
type msgWalk struct {
	c       *Cluster
	dst     *Node
	msg     *Message
	length  int      // msg.Length frozen at Send time: packetization must
	n       int      // not change if the caller mutates msg in flight
	idx     int      // next packet to deliver
	seq0    uint64   // reserved sequence number of packet 0's arrival
	stamp   sim.Time // engine clock at Send (seq-reservation) time
	pri     uint64   // (source send count, source rank) priority key
	arr     sim.Time // arrival time of packet idx
	occFull sim.Time // egress occupancy of a full-MTU packet
	occLast sim.Time // egress occupancy of the final packet

	// impSeq is the message's reserved block of per-link packet sequence
	// numbers and lastAt the latest impaired delivery time so far (FIFO
	// clamp). Both are used only under impairment.
	impSeq uint64
	lastAt sim.Time
}

// AllocMessage draws a zeroed wire message from the cluster's engine-owned
// free list. Pooled messages are recycled by the transport itself as soon as
// every packet of the send has retired (see retire) — so a receiver (and
// every layer above it) must copy anything it needs past a packet's
// dispatch and must never hold a pooled *Message across events. See
// ARCHITECTURE.md "Pooling ownership rules" for the full contract.
//
// Messages built as plain literals (&Message{...}) remain valid and are
// never recycled; pooling is opt-in by allocation site.
func (c *Cluster) AllocMessage() *Message {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &Message{pooled: true}
}

// PooledMessages reports how many messages sit in the free list right now
// (test/diagnostic use: retention tests assert the pool returns to its
// idle size, proving no path leaks or double-holds a pooled message).
func (c *Cluster) PooledMessages() int { return len(c.msgFree) }

// retire marks one packet of m as done for good: dispatched to the
// Receiver, dropped by the impairment, discarded by the CRC check, or
// vanished at a node with no Receiver. When the send's last packet retires,
// a pooled message is zeroed — its RecvState slot, which holds any partial
// receive state, included — and returned to the free list, keeping the
// staging buffer's capacity for the next StageData. A pending Delivered
// event carries DeliveredArg, not the message, so it never holds one.
func (c *Cluster) retire(m *Message) {
	m.track--
	if m.track > 0 || !m.pooled {
		return
	}
	buf := m.buf
	*m = Message{}
	m.buf = buf[:0]
	m.pooled = true
	c.msgFree = append(c.msgFree, m)
}

// Send injects msg at the source NIC no earlier than ready (data available
// at the NIC) and delivers its packets to the destination's Receiver after
// matching. The caller is responsible for charging CPU overhead (o) or DMA
// fetch time before ready, depending on where the data originates; Send
// models only the wire and the receive-side matching hardware.
//
// Send routes to the source node's owning cluster: itself when serial, the
// source's shard in LP mode (where the caller must already be executing on
// that shard's engine).
func (c *Cluster) Send(ready sim.Time, msg *Message) {
	c.Nodes[msg.Src].cluster.send(ready, msg)
}

// send is the owning-shard half of Send. c is the source node's cluster.
func (c *Cluster) send(ready sim.Time, msg *Message) {
	if msg.ID == 0 {
		msg.ID = c.NextID()
	}
	src := c.Nodes[msg.Src]
	dst := c.Nodes[msg.Dst]
	lat := c.P.Topo.Latency(msg.Src, msg.Dst)
	n := c.P.Packets(msg.Length)
	c.MessagesSent++

	// Every packet except the last carries a full MTU, so egress occupancy
	// has only two distinct values and the message's back-to-back egress
	// acquisitions collapse to closed form.
	var occFull sim.Time
	if n > 1 {
		occFull = c.P.PacketOccupancy(c.P.MTU)
	}
	occLast := c.P.PacketOccupancy(msg.Length - (n-1)*c.P.MTU)
	firstOcc := occLast
	if n > 1 {
		firstOcc = occFull
	}

	// One egress reservation for the whole train: the packets inject
	// back to back, so a single Acquire of the summed occupancy leaves the
	// same busy-until trajectory as n consecutive acquisitions, in O(1).
	totalOcc := sim.Time(n-1)*occFull + occLast
	start := src.Egress.Acquire(ready, totalOcc)
	firstArrival := start + firstOcc + lat
	lastInjected := start + totalOcc
	if c.Rec.Enabled() {
		s := start
		for i := 0; i < n; i++ {
			occ := occFull
			if i == n-1 {
				occ = occLast
			}
			c.Rec.Record(msg.Src, "NIC", s, s+occ, fmt.Sprintf("tx %s #%d", msg.Type, i)) //simlint:alloc-ok trace labels are built only when recording is enabled; benchmarks run with Rec nil
			s += occ
		}
	}
	c.PacketsSent += uint64(n)
	c.BytesSent += uint64(msg.Length)

	var impSeq uint64
	if c.imp != nil {
		// Reserve this message's block of per-link packet sequence numbers
		// at Send time: the fault verdict for packet i depends only on how
		// many packets the link carried before this message, which is itself
		// a pure function of the traffic pattern. A link's traffic always
		// originates at the source's shard, so the per-shard counters count
		// exactly as the serial ones do.
		k := linkKey(msg.Src, msg.Dst)
		impSeq = c.linkSeq[k]
		c.linkSeq[k] += uint64(n)
	}
	msg.track = n
	stamp := c.Eng.Now()
	// The walk's priority key: (source send count, source rank), unique per
	// message and derived only from the node's own traffic history — so two
	// walks that tie on (arrival, stamp) order identically whether their
	// events share one engine (serial) or meet across an LP window barrier,
	// where engine sequence numbers are incomparable. Rank fits 16 bits by
	// topology validation (a fat tree's host count is far below 64k).
	src.sendSeq++
	cs := crossSend{dst: dst.cluster, dstNode: dst, msg: msg, length: msg.Length, n: n,
		arr: firstArrival, stamp: stamp, pri: src.sendSeq<<16 | uint64(msg.Src),
		occFull: occFull, occLast: occLast, impSeq: impSeq}
	if cs.dst != c {
		// Cross-LP send: the packets must be delivered by the destination
		// shard's engine. Park the fully computed walk parameters in this
		// shard's outbox; the window barrier injects them into the
		// destination engine (Cluster.flush), which is safe because
		// firstArrival >= now + cross-shard latency >= window bound.
		if msg.Delivered != nil {
			panic("netsim: cross-LP send with a Delivered callback (the source engine cannot observe destination-side completion)")
		}
		c.outbox = append(c.outbox, cs)
		return
	}
	c.startWalk(&cs)
	if msg.Delivered != nil {
		c.Eng.ScheduleCall(lastInjected, msg.Delivered, msg.DeliveredArg)
	}
}

// startWalk starts a message's packet walk on c, the destination node's
// cluster: send calls it for local traffic and the LP barrier (flush) for
// migrated traffic, so the walk is always drawn from the pool of the engine
// that will run it, and the message's receive slot is cleared on the
// destination's side of the send.
func (c *Cluster) startWalk(cs *crossSend) {
	cs.msg.RecvState = nil
	w := c.walkFree.Get()
	*w = msgWalk{c: c, dst: cs.dstNode, msg: cs.msg, length: cs.length, n: cs.n,
		seq0: c.Eng.ReserveSeq(cs.n), stamp: cs.stamp, pri: cs.pri, arr: cs.arr,
		occFull: cs.occFull, occLast: cs.occLast, impSeq: cs.impSeq}
	c.Eng.ScheduleCallSeq(cs.arr, cs.stamp, cs.pri, w.seq0, walkDeliver, w)
}

// walkDeliver fires at one packet's arrival instant: it materializes the
// packet from the free list, hands it to the destination NIC, and
// reschedules itself for the message's next packet.
func walkDeliver(a any) {
	w := a.(*msgWalk)
	c := w.c
	i := w.idx
	off := i * c.P.MTU
	size := w.length - off
	if size > c.P.MTU {
		size = c.P.MTU
	}
	if size < 0 {
		size = 0
	}
	pkt := c.pktFree.Get()
	pkt.Msg = w.msg
	pkt.Index = i
	pkt.Offset = off
	pkt.Size = size
	pkt.Header = i == 0
	pkt.Last = i == w.n-1
	dst := w.dst
	// Decide the packet's fate before advancing the walk: the final packet's
	// advance frees w, and the verdict reads the walk's impairment state.
	at, drop := w.arr, false
	if c.imp != nil {
		at, drop = c.impairPacket(w, pkt, w.arr)
	}
	w.idx++
	if w.idx < w.n {
		if w.idx == w.n-1 {
			w.arr += w.occLast
		} else {
			w.arr += w.occFull
		}
		c.Eng.ScheduleCallSeq(w.arr, w.stamp, w.pri, w.seq0+uint64(w.idx), walkDeliver, w)
	} else {
		c.walkFree.Put(w)
	}
	if drop {
		msg := pkt.Msg
		c.pktFree.Put(pkt)
		c.retire(msg)
		return
	}
	if at == c.Eng.Now() {
		dst.receive(pkt)
		return
	}
	pkt.node = dst
	c.Eng.ScheduleCall(at, runDelayedReceive, pkt)
}

// receive runs when a packet reaches the destination NIC: it passes the
// matching hardware (full match for header packets, CAM lookup otherwise)
// and is handed to the node's Receiver. It takes ownership of pkt and
// recycles it once the Receiver is done.
func (n *Node) receive(pkt *Packet) {
	c := n.cluster
	now := c.Eng.Now()
	cost := c.P.CAMLookup
	if pkt.Header {
		cost = c.P.HeaderMatch
	}
	start := n.MatchHW.Acquire(now, cost)
	done := start + cost
	if c.Rec.Enabled() {
		c.Rec.Record(n.Rank, "NIC", start, done, fmt.Sprintf("match %s #%d", pkt.Msg.Type, pkt.Index)) //simlint:alloc-ok trace labels are built only when recording is enabled; benchmarks run with Rec nil
	}
	if n.Recv == nil {
		// No consumer installed; the packet vanishes (tests only).
		msg := pkt.Msg
		c.pktFree.Put(pkt)
		c.retire(msg)
		return
	}
	pkt.node = n
	c.Eng.ScheduleCall(done, deliverMatched, pkt)
}

// deliverMatched hands a matched packet to the node's Receiver, recycles
// it, and retires it from its message. Receivers must not retain the
// pointer past the call. A corrupted packet fails the NIC CRC check here:
// it consumed wire and matching bandwidth but never reaches the Receiver,
// so recovery layers see it as a loss.
func deliverMatched(a any) {
	pkt := a.(*Packet)
	n := pkt.node
	c := n.cluster
	msg := pkt.Msg
	if !pkt.corrupt {
		n.Recv.ReceivePacket(c.Eng.Now(), pkt)
	}
	c.pktFree.Put(pkt)
	c.retire(msg)
}

// HostSend charges the injection overhead o on a host core at time now and
// then injects the message; it returns the time the core is released. This
// is the "posted by the host" path used by RDMA and PtlPut.
func (c *Cluster) HostSend(now sim.Time, msg *Message) (coreFree sim.Time) {
	src := c.Nodes[msg.Src]
	_, start := src.Cores.AcquireAny(now, c.P.O)
	coreFree = start + c.P.O
	if c.Rec.Enabled() {
		c.Rec.Record(msg.Src, "CPU", start, coreFree, "post "+msg.Type.String())
	}
	c.Send(coreFree, msg)
	return coreFree
}
