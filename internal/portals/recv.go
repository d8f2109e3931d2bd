package portals

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// eventWriteBytes is the size of a full event DMA'd to host memory.
const eventWriteBytes = 64

// ReceivePacket demultiplexes matched packets: puts and atomics flow
// through ME matching into the sPIN runtime; gets are served from ME
// memory by the NIC; replies and acks resolve operations outstanding at
// this initiator.
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

// recvPut steers a put or atomic. The header packet matches and hands
// every matched message to the sPIN runtime, which keeps the message's
// state in its RecvState slot; an entry without handlers gets the
// runtime's default action, as a header handler's Proceed does. Every
// later packet follows the slot, which a message dropped at the header
// left nil.
func (ni *NI) recvPut(now sim.Time, pkt *netsim.Packet) {
	msg := pkt.Msg
	if !pkt.Header {
		if msg.RecvState == nil {
			// Message was dropped at the header; discard silently.
			ni.Drops++
			return
		}
		ni.RT.Deliver(now, pkt, nil)
		return
	}
	pte := ni.pt[msg.PTIndex]
	if pte == nil || !pte.Enabled {
		ni.dropMessage(now, pkt, pte)
		return
	}
	me := pte.match(msg)
	if me == nil {
		ni.dropMessage(now, pkt, pte)
		return
	}
	if me.UseOnce {
		me.unlinked = true
	}
	// Locally-managed MEs pack messages back-to-back (§3.1).
	if me.ManageLocal {
		msg.Offset = me.localOffset
		me.localOffset += int64(msg.Length)
	}
	ni.RT.Deliver(now, pkt, &me.mectx)
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
// the original message's ID and source as scalars so the deferred
// completion (finishMessage) need not retain the message itself.
func (ni *NI) sendAck(at sim.Time, origID uint64, origSrc int) {
	ack := ni.C.AllocMessage()
	ack.Type = netsim.OpAck
	ack.Src = ni.Node.Rank
	ack.Dst = origSrc
	ack.ReplyTo = origID
	ni.C.Send(at, ack)
}

// finishMessage completes every put and atomic, at the instant the
// runtime delivers its result (r.End): unless a handler returned a PENDING
// code, it bumps the counter, raises the completion event and
// acknowledges the initiator. The event is an error, else an atomic, else
// an overflow put when the entry sits on the overflow list, else a put.
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
	switch {
	case r.Err != nil:
		evType = EventError
	case r.Type == netsim.OpAtomic:
		evType = EventAtomic
	case me.list == OverflowList:
		evType = EventPutOverflow
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
// ME host memory via DMA and streams the reply — no host CPU involved. The
// reply is the requested range's intersection with the entry's region;
// from a timing-only region (ME.Length) it carries no data.
func (ni *NI) serveGet(now sim.Time, pkt *netsim.Packet) {
	msg := pkt.Msg
	pte := ni.pt[msg.PTIndex]
	if pte == nil || !pte.Enabled {
		ni.dropMessage(now, pkt, pte)
		return
	}
	me := pte.match(msg)
	if me == nil {
		ni.dropMessage(now, pkt, pte)
		return
	}
	if me.UseOnce {
		me.unlinked = true
	}
	region := me.mectx.HostMem
	offset, length := region.Clip(msg.Offset, msg.GetLength)
	ready := ni.Node.Bus.Read(now, length)
	ni.C.Rec.Record(ni.Node.Rank, "DMA", now, ready, "get-fetch")
	reply := ni.C.AllocMessage()
	reply.Type = netsim.OpGetResponse
	reply.Src = ni.Node.Rank
	reply.Dst = msg.Src
	reply.ReplyTo = msg.ID
	var data []byte
	if length > 0 { // a clipped-away get may start past the region's end
		data = region.Bytes(offset, length)
	}
	reply.SetPayload(data, length)
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

// recvReply deposits a get response into the region registered when the
// get was issued (the MD for host gets, the ME's host region for handler
// gets).
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
		if pkt.Msg.Data != nil {
			dst, src := op.dest.Land(op.destOff+int64(pkt.Offset), pkt.Msg.Data[pkt.Offset:pkt.Offset+n])
			copy(dst, src)
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
// checked first: their ack cancels the retransmit timer, fires the MD's
// completion and recycles the record. Acks of superseded attempts miss both
// maps and are ignored.
func (ni *NI) recvAck(now sim.Time, pkt *netsim.Packet) {
	if rec, ok := ni.rtx[pkt.Msg.ReplyTo]; ok {
		delete(ni.rtx, pkt.Msg.ReplyTo)
		ni.C.Eng.Cancel(rec.timer)
		if md := rec.a.MD; md != nil {
			if md.CT != nil {
				md.CT.Inc(now, 1)
			}
			if md.EQ != nil {
				md.EQ.Append(Event{Type: EventAck, At: now, Length: rec.a.Length})
			}
		}
		ni.rtxFree.Put(rec)
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
