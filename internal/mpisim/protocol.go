package mpisim

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// nicHandlerDelay is the header-handler time for the sPIN rendezvous
// handler to parse the RTS and issue the get (a few dozen instructions).
const nicHandlerDelay = 20 * sim.Nanosecond

// isend posts a send. Eager messages are buffered and complete locally;
// rendezvous sends announce the data with an RTS and complete when the
// receiver has pulled the data from this rank's memory.
func (r *rank) isend(now sim.Time, op Op) sim.Time {
	e := r.eng
	r.messages++
	sr := r.sendFree.Get()
	r.sends = append(r.sends, sr)
	// Under impairment every send goes rendezvous: an eager message that
	// loses a packet is gone (fire-and-forget has no recovery), while the
	// rendezvous control loop retries RTS and pull until the data lands.
	if op.Size <= e.Cfg.EagerThreshold && !e.retryOn() {
		sr.done = true
		m := r.nc.AllocMessage()
		m.Type = netsim.OpPut
		m.Src = r.id
		m.Dst = op.Peer
		m.MatchBits = op.Tag
		m.Length = op.Size
		return e.C.HostSend(now, m)
	}
	id := r.nc.NextID()
	r.rdvPull[id] = sr
	rts := r.nc.AllocMessage()
	rts.Type = netsim.OpPut
	rts.Src = r.id
	rts.Dst = op.Peer
	rts.MatchBits = op.Tag
	rts.HdrData = id
	rts.GetLength = op.Size
	coreFree := e.C.HostSend(now, rts)
	if e.retryOn() {
		e.armCtlRetry(now, true, id, r, op.Peer, op.Tag, op.Size)
	}
	return coreFree
}

// irecv posts a receive: in sPIN mode this installs a matching entry (and
// rendezvous handlers) on the NIC; in host mode it only updates the
// library's queues. Either way it checks the unexpected queue.
func (r *rank) irecv(now sim.Time, op Op) sim.Time {
	rr := r.recvFree.Get()
	rr.peer = op.Peer
	rr.tag = op.Tag
	rr.size = op.Size
	r.recvs = append(r.recvs, rr)
	now = r.cpu.Exec(now, r.eng.Cfg.RecvPostCost)
	// Search the unexpected queue (the host is in the MPI library now).
	for i, pa := range r.unexpected {
		if pa.src != op.Peer || pa.tag != op.Tag {
			continue
		}
		r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
		if pa.rts {
			// Case IV (Fig. 5b): recv after RTS — the CPU issues the get.
			t := r.cpu.Exec(maxTime(now, pa.at), r.eng.C.P.O)
			r.eng.issuePull(t, r, rr, pa.src, pa.tag, pa.pullID)
		} else {
			// Case III: eager data already in the bounce buffer — copy.
			t := r.cpu.MatchWalk(maxTime(now, pa.at), len(r.unexpected)+1)
			t = r.cpu.Copy(t, pa.size)
			r.copies++
			r.completeRecv(t, rr)
		}
		r.paFree.Put(pa)
		return now
	}
	r.posted = append(r.posted, rr)
	return now
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// completeRecv finishes a receive at time t.
func (r *rank) completeRecv(t sim.Time, rr *recvReq) {
	rr.done = true
	r.nc.Eng.ScheduleCall(t, rankResume, r)
}

// matchPosted removes and returns the first posted receive matching
// (src, tag), or nil.
func (r *rank) matchPosted(src int, tag uint64) *recvReq {
	for i, rr := range r.posted {
		if rr.peer == src && rr.tag == tag {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return rr
		}
	}
	return nil
}

// issuePull sends the rendezvous get to the data's source. In sPIN mode
// the NIC's header handler issues it; in host mode the CPU does.
func (e *Engine) issuePull(now sim.Time, r *rank, rr *recvReq, src int, tag, pullID uint64) {
	pull := r.nc.AllocMessage()
	pull.Type = netsim.OpGet
	pull.Src = r.id
	pull.Dst = src
	pull.MatchBits = tag
	pull.HdrData = pullID
	pull.GetLength = rr.size
	r.pullWait[pullID] = pullDest{r: r, rr: rr}
	e.C.Send(now, pull)
	// The pull timer also covers a lost (or partially lost) data response:
	// the id stays in pullWait until the response completes, so the timer
	// re-issues the pull and the sender streams the data again.
	if e.retryOn() {
		e.armCtlRetry(now, false, pullID, r, src, tag, rr.size)
	}
}

// progressArrival services one queued arrival once the host can progress
// MPI: match it against the posted queue, or park it on the unexpected
// queue. Matched arrivals are recycled here; parked ones when they match a
// later receive.
func (r *rank) progressArrival(now sim.Time, pa *pendingArrival) {
	e := r.eng
	if rr := r.matchPosted(pa.src, pa.tag); rr != nil {
		t := r.cpu.MatchWalk(maxTime(now, pa.at), len(r.posted)+1)
		if pa.rts {
			t = r.cpu.Exec(t, e.C.P.O)
			e.issuePull(t, r, rr, pa.src, pa.tag, pa.pullID)
		} else {
			t = r.cpu.Copy(t, pa.size)
			r.copies++
			r.completeRecv(t, rr)
		}
		r.paFree.Put(pa)
		return
	}
	r.unexpected = append(r.unexpected, pa)
}

// nodeRecv adapts a rank to netsim.Receiver: it assembles packets into
// messages (charging the destination DMA for payload-carrying packets) and
// dispatches the protocol when a message is complete.
type nodeRecv struct {
	e *Engine
	r *rank
}

// ReceivePacket implements netsim.Receiver. It runs on the receiving rank's
// engine and touches only that rank's assembly state: a single-packet
// message dispatches at once, and a longer one assembles in an inflight
// record kept in the message's RecvState slot (the first packet to arrive,
// normally the header, finds the slot nil and fills it).
func (nr *nodeRecv) ReceivePacket(now sim.Time, pkt *netsim.Packet) {
	e, r := nr.e, nr.r
	m := pkt.Msg
	visible := now
	if pkt.Size > 0 {
		_, visible = e.C.Nodes[r.id].Bus.Write(now, pkt.Size)
	}
	if pkt.Header && pkt.Last {
		nr.dispatch(visible, m)
		return
	}
	fl, _ := m.RecvState.(*inflight)
	if fl == nil {
		fl = r.inflFree.Get()
		fl.total = e.C.P.Packets(m.Length)
		m.RecvState = fl
	}
	fl.arrived++
	if visible > fl.visible {
		fl.visible = visible
	}
	if fl.arrived < fl.total {
		return
	}
	visible = fl.visible
	r.inflFree.Put(fl)
	nr.dispatch(visible, m)
	// The dispatch copied everything it needs (pendingArrival fields,
	// request pointers); the transport recycles the wire message, and with
	// it the slot, when this final dispatch returns.
}

// dispatch handles one fully arrived message. The message must not be
// retained: ReceivePacket recycles it when dispatch returns.
func (nr *nodeRecv) dispatch(at sim.Time, m *netsim.Message) {
	e, r := nr.e, nr.r
	switch {
	case m.Type == netsim.OpGet:
		// Rendezvous pull request: this rank is the sender; the NIC reads
		// the data from host memory and streams it back — no CPU. The pull
		// always arrives at the rank that announced the id, so rdvPull is
		// rank-local by construction.
		sr := r.rdvPull[m.HdrData]
		delete(r.rdvPull, m.HdrData)
		ready := e.C.Nodes[r.id].Bus.Read(at, m.GetLength)
		data := r.nc.AllocMessage()
		data.Type = netsim.OpGetResponse
		data.Src = r.id
		data.Dst = m.Src
		data.Length = m.GetLength
		data.HdrData = m.HdrData
		e.C.Send(ready, data)
		if sr != nil {
			sr.done = true
			r.nc.Eng.ScheduleCall(ready, rankResume, r)
		}
	case m.Type == netsim.OpGetResponse:
		// Rendezvous data landed in the user buffer (this rank issued the
		// pull, so pullWait is rank-local by construction).
		pd, ok := r.pullWait[m.HdrData]
		if ok {
			delete(r.pullWait, m.HdrData)
			pd.r.completeRecv(at, pd.rr)
		}
	case m.GetLength > 0:
		// RTS for a rendezvous send.
		if e.retryOn() {
			// A retransmitted RTS must not match twice: the first copy
			// already created receive-side state keyed by the same id.
			if _, dup := r.rtsSeen[m.HdrData]; dup {
				return
			}
			r.rtsSeen[m.HdrData] = struct{}{}
		}
		if e.Cfg.Mode == SpinMatching {
			if rr := r.matchPosted(m.Src, m.MatchBits); rr != nil {
				// Case II: the header handler issues the get directly
				// from the NIC — fully asynchronous progress.
				e.issuePull(at+nicHandlerDelay, r, rr, m.Src, m.MatchBits, m.HdrData)
				return
			}
		}
		pa := r.paFree.Get()
		pa.src = m.Src
		pa.tag = m.MatchBits
		pa.size = m.GetLength
		pa.rts = true
		pa.at = at
		pa.pullID = m.HdrData
		if e.Cfg.Mode == SpinMatching {
			r.unexpected = append(r.unexpected, pa)
			return
		}
		// Baseline: the CPU must be inside MPI to see the RTS.
		r.enqueueArrival(at, pa)
	default:
		// Eager data.
		if e.Cfg.Mode == SpinMatching {
			if rr := r.matchPosted(m.Src, m.MatchBits); rr != nil {
				// Case I: matched in hardware, deposited directly into
				// the user buffer — no copy.
				r.completeRecv(at, rr)
				return
			}
		}
		pa := r.paFree.Get()
		pa.src = m.Src
		pa.tag = m.MatchBits
		pa.size = m.Length
		pa.at = at
		if e.Cfg.Mode == SpinMatching {
			r.unexpected = append(r.unexpected, pa)
			return
		}
		// Baseline: data sits in the bounce buffer until the CPU is in
		// MPI, matches it, and copies it out.
		r.enqueueArrival(at, pa)
	}
}
