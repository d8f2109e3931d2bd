package portals

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// recvState tracks an in-flight message steered by a plain (handler-less)
// ME: the default deposit path shared by the RDMA and Portals 4 baselines.
// It rides in the message's RecvState slot from the header packet on, and
// is recycled through NI.rsFree once the message completes.
type recvState struct {
	me       *ME
	msg      *netsim.Message
	overflow bool
	offset   int64 // resolved deposit offset in the ME
	arrived  int
	total    int
	visible  sim.Time
}

// eventWriteBytes is the size of a full event DMA'd to host memory.
const eventWriteBytes = 64

// ReceivePacket demultiplexes matched packets: puts and atomics flow
// through ME matching into the sPIN runtime or the default deposit path;
// gets are served from ME memory by the NIC; replies and acks resolve
// operations outstanding at this initiator.
func (ni *NI) ReceivePacket(now sim.Time, pkt *netsim.Packet) {
	switch pkt.Msg.Type {
	case netsim.OpPut, netsim.OpAtomic:
		ni.recvPut(now, pkt)
	case netsim.OpGet:
		ni.serveGet(now, pkt)
	case netsim.OpGetResponse:
		ni.recvReply(now, pkt)
	case netsim.OpAck:
		ni.recvAck(now, pkt)
	}
}

// recvPut steers a put or atomic. The header packet matches and fills the
// message's RecvState slot — a *recvState for a plain ME, the runtime's
// message state for a handler ME, nothing when the message is dropped —
// and every later packet follows the slot.
func (ni *NI) recvPut(now sim.Time, pkt *netsim.Packet) {
	msg := pkt.Msg
	if !pkt.Header {
		switch st := msg.RecvState.(type) {
		case *recvState:
			ni.depositPacket(now, pkt, st)
		case nil:
			// Message was dropped at the header; discard silently.
			ni.Drops++
		default:
			ni.RT.Deliver(now, pkt, nil)
		}
		return
	}
	pte := ni.pt[msg.PTIndex]
	if pte == nil || !pte.Enabled {
		ni.dropMessage(now, pkt, pte)
		return
	}
	me, overflow := pte.match(msg)
	if me == nil {
		ni.dropMessage(now, pkt, pte)
		return
	}
	if me.UseOnce {
		me.unlinked = true
	}
	// Resolve the deposit offset: locally-managed MEs pack messages
	// back-to-back (§3.1).
	offset := msg.Offset
	if me.ManageLocal {
		offset = me.localOffset
		me.localOffset += int64(msg.Length)
		msg.Offset = offset
	}
	if !me.Handlers.Empty() {
		ni.RT.Deliver(now, pkt, &me.mectx)
		return
	}
	st := ni.rsFree.Get()
	st.me, st.msg, st.overflow = me, msg, overflow
	st.offset, st.total = offset, ni.C.P.Packets(msg.Length)
	msg.RecvState = st
	ni.depositPacket(now, pkt, st)
}

// dropMessage handles a header packet with no matching resources: the
// portal enters flow control and the packets of the message are discarded.
func (ni *NI) dropMessage(now sim.Time, pkt *netsim.Packet, pte *PTEntry) {
	ni.Drops++
	if pte != nil {
		pte.Enabled = false // flow control: drop until host re-enables
		if pte.EQ != nil {
			pte.EQ.Append(Event{
				Type:        EventDropped,
				At:          now,
				Source:      pkt.Msg.Src,
				MatchBits:   pkt.Msg.MatchBits,
				Length:      pkt.Msg.Length,
				FlowControl: true,
			})
		}
	}
}

// depositPacket is the default action: DMA the payload into the ME at the
// resolved offset, truncating at the ME boundary as Portals does.
func (ni *NI) depositPacket(now sim.Time, pkt *netsim.Packet, st *recvState) {
	st.arrived++
	n := pkt.Size
	if n > 0 {
		_, visible := ni.Node.Bus.Write(now, n)
		ni.C.Rec.Record(ni.Node.Rank, "DMA", now, visible, "deposit")
		if visible > st.visible {
			st.visible = visible
		}
		dst := st.offset + int64(pkt.Offset)
		if st.me.Start != nil && dst < int64(len(st.me.Start)) {
			end := dst + int64(n)
			if end > int64(len(st.me.Start)) {
				end = int64(len(st.me.Start))
			}
			if pkt.Msg.Data != nil && end > dst {
				src := pkt.Msg.Data[pkt.Offset : pkt.Offset+int(end-dst)]
				if pkt.Msg.Type == netsim.OpAtomic {
					applyAtomic(AtomicOp(pkt.Msg.AtomicOp), st.me.Start[dst:end], src)
				} else {
					copy(st.me.Start[dst:end], src)
				}
			}
		}
	} else if st.visible < now {
		st.visible = now
	}
	if st.arrived == st.total {
		// Last packet: the transport recycles pooled messages the moment
		// this dispatch returns (see netsim.deliverMatched), so complete
		// from the message now and release the record.
		ni.completeDeposit(st)
		ni.rsFree.Put(st)
	}
}

// completeDeposit fires counters, events, and acks once the whole message
// is visible in host memory.
func (ni *NI) completeDeposit(st *recvState) {
	at := st.visible
	me := st.me
	if me.CT != nil {
		me.CT.Inc(at, 1)
	}
	evType := EventPut
	if st.overflow {
		evType = EventPutOverflow
	}
	if st.msg.Type == netsim.OpAtomic {
		evType = EventAtomic
	}
	ni.postEvent(at, me, Event{
		Type:      evType,
		ME:        me,
		Source:    st.msg.Src,
		MatchBits: st.msg.MatchBits,
		HdrData:   st.msg.HdrData,
		Length:    st.msg.Length,
		Offset:    st.offset,
	})
	if st.msg.AckReq {
		ni.sendAck(at, st.msg.ID, st.msg.Src)
	}
}

// postEvent delivers a full event: the NIC DMAs the event record into host
// memory right behind the data it completes, so visibility costs the
// record's transfer time. The write is not put on the bus reservation
// timeline: it happens one bus latency in the future, and a future-time
// reservation on a busy-until resource would head-of-line block every
// subsequent deposit.
func (ni *NI) postEvent(at sim.Time, me *ME, ev Event) {
	eq := me.EQ
	if eq == nil && me.pte != nil {
		eq = me.pte.EQ
	}
	if eq == nil {
		return
	}
	ev.At = at + ni.Node.Bus.Occupancy(eventWriteBytes)
	eq.Append(ev)
}

// sendAck returns an OpAck to the initiator (ack_req semantics). It takes
// the original message's ID and source as scalars so callers on deferred
// paths (handler completion) need not retain the message itself.
func (ni *NI) sendAck(at sim.Time, origID uint64, origSrc int) {
	ack := ni.C.AllocMessage()
	ack.Type = netsim.OpAck
	ack.Src = ni.Node.Rank
	ack.Dst = origSrc
	ack.ReplyTo = origID
	ni.C.Send(at, ack)
}

// finishMessage is the completion path for handler (sPIN) MEs: unless a
// handler returned a PENDING code, it raises the completion event, bumps
// the counter, and acknowledges the initiator.
func (ni *NI) finishMessage(now sim.Time, me *ME, r core.MessageResult) {
	if r.Pending {
		return
	}
	if me.CT != nil {
		if r.Err != nil {
			me.CT.IncFailure(now)
		} else {
			me.CT.Inc(now, 1)
		}
	}
	evType := EventPut
	if r.Err != nil {
		evType = EventError
	}
	ni.postEvent(now, me, Event{
		Type:         evType,
		ME:           me,
		Source:       r.Source,
		MatchBits:    r.MatchBits,
		HdrData:      r.HdrData,
		Length:       r.Length,
		Offset:       r.Offset,
		DroppedBytes: r.DroppedBytes,
		FlowControl:  r.FlowControl,
		Err:          r.Err,
	})
	if r.AckReq {
		ni.sendAck(now, r.MsgID, r.Source)
	}
}

// serveGet answers a get request: match, then the NIC fetches the data from
// ME host memory via DMA and streams the reply — no host CPU involved.
func (ni *NI) serveGet(now sim.Time, pkt *netsim.Packet) {
	msg := pkt.Msg
	pte := ni.pt[msg.PTIndex]
	if pte == nil || !pte.Enabled {
		ni.dropMessage(now, pkt, pte)
		return
	}
	me, _ := pte.match(msg)
	if me == nil {
		ni.dropMessage(now, pkt, pte)
		return
	}
	if me.UseOnce {
		me.unlinked = true
	}
	length := msg.GetLength
	offset := msg.Offset
	if me.Start != nil {
		if offset < 0 {
			offset = 0
		}
		if offset+int64(length) > int64(len(me.Start)) {
			length = int(int64(len(me.Start)) - offset)
			if length < 0 {
				length = 0
			}
		}
	}
	ready := ni.Node.Bus.Read(now, length)
	ni.C.Rec.Record(ni.Node.Rank, "DMA", now, ready, "get-fetch")
	reply := ni.C.AllocMessage()
	reply.Type = netsim.OpGetResponse
	reply.Src = ni.Node.Rank
	reply.Dst = msg.Src
	reply.Length = length
	reply.ReplyTo = msg.ID
	if me.Start != nil {
		copy(reply.StageData(length), me.Start[offset:])
	}
	ni.C.Send(ready, reply)
	if me.CT != nil {
		me.CT.Inc(ready, 1)
	}
	ni.postEvent(ready, me, Event{
		Type:      EventGet,
		ME:        me,
		Source:    msg.Src,
		MatchBits: msg.MatchBits,
		Length:    length,
		Offset:    offset,
	})
}

// recvReply deposits a get response into the memory registered when the
// get was issued (MD for host gets, ME host memory for handler gets).
func (ni *NI) recvReply(now sim.Time, pkt *netsim.Packet) {
	op := ni.outstanding[pkt.Msg.ReplyTo]
	if op == nil {
		ni.Drops++
		return
	}
	op.arrived++
	n := pkt.Size
	if n > 0 {
		_, visible := ni.Node.Bus.Write(now, n)
		ni.C.Rec.Record(ni.Node.Rank, "DMA", now, visible, "reply")
		if visible > op.visible {
			op.visible = visible
		}
		dst := op.destOff + int64(pkt.Offset)
		if op.dest != nil && pkt.Msg.Data != nil && dst+int64(n) <= int64(len(op.dest)) {
			copy(op.dest[dst:], pkt.Msg.Data[pkt.Offset:pkt.Offset+n])
		}
	} else if op.visible < now {
		op.visible = now
	}
	if op.arrived >= op.total {
		delete(ni.outstanding, pkt.Msg.ReplyTo)
		at := op.visible
		if op.md != nil {
			if op.md.CT != nil {
				op.md.CT.Inc(at, 1)
			}
			if op.md.EQ != nil {
				op.md.EQ.Append(Event{Type: EventReply, At: at, Length: pkt.Msg.Length})
			}
		}
		ni.opFree.Put(op)
	}
}

// recvAck resolves a put acknowledgment at the initiator. Reliable puts are
// checked first: their ack marks the retransmit record (the pending timer
// recycles it) and fires the MD's completion. Acks of superseded attempts
// miss both maps and are ignored.
func (ni *NI) recvAck(now sim.Time, pkt *netsim.Packet) {
	if rec, ok := ni.rtx[pkt.Msg.ReplyTo]; ok {
		delete(ni.rtx, pkt.Msg.ReplyTo)
		rec.acked = true
		if md := rec.a.MD; md != nil {
			if md.CT != nil {
				md.CT.Inc(now, 1)
			}
			if md.EQ != nil {
				md.EQ.Append(Event{Type: EventAck, At: now, Length: rec.a.Length})
			}
		}
		return
	}
	op := ni.outstanding[pkt.Msg.ReplyTo]
	if op == nil {
		return
	}
	delete(ni.outstanding, pkt.Msg.ReplyTo)
	if op.md != nil {
		if op.md.CT != nil {
			op.md.CT.Inc(now, 1)
		}
		if op.md.EQ != nil {
			op.md.EQ.Append(Event{Type: EventAck, At: now})
		}
	}
	ni.opFree.Put(op)
}

// applyAtomic applies a Portals atomic operation elementwise.
func applyAtomic(op AtomicOp, dst, src []byte) {
	switch op {
	case AtomicSum:
		n := len(dst) &^ 7
		for i := 0; i < n; i += 8 {
			v := binary.LittleEndian.Uint64(dst[i:]) + binary.LittleEndian.Uint64(src[i:])
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	case AtomicBXOR:
		for i := range dst {
			dst[i] ^= src[i]
		}
	default: // AtomicSwap and unknown ops behave like a plain put
		copy(dst, src)
	}
}
