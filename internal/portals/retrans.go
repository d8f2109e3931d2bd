package portals

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Reliable puts: timeout-and-retransmit recovery on top of the ack_req
// machinery, built for impaired networks (netsim.Impairment). A reliable put
// is a put with AckReq forced on; if no ack arrives within the timeout the
// NIC resends the whole message (data re-staged from the MD) until it is
// acked or the retry budget is exhausted. Completion is signalled through
// the MD's CT/EQ by the ack alone — there is no send-side SEND event,
// because injection no longer implies delivery.
//
// Semantics are at-least-once: a lost ack means the target deposits the
// payload again. Exactly-once delivery requires a receiver that deduplicates
// and still acks duplicates — the handlers/ftbcast dedup-and-forward ME is
// the canonical example (finishMessage acknowledges even Drop outcomes).
// For dedup-based exactly-once, keep payloads single-packet: a multi-packet
// attempt that loses a non-header packet has already claimed the receiver's
// dedup slot.
//
// Ownership: a record lives from ReliablePut until its put ends. Exactly
// one timer is pending per record, and the record keeps its handle: the
// ack cancels the timer and recycles the record, so a timer that fires
// always finds its put unacked; a timer that spends the retry budget
// recycles the record itself, and NI.Reset recycles the records of puts
// still open. Records are pooled on NI-owned free lists — no closures, no
// sync.Pool — per the rules in ARCHITECTURE.md.

// RetransConfig configures reliable puts on an NI.
type RetransConfig struct {
	// Timeout is how long the initiator waits for an ack before resending.
	// It must exceed the round-trip time of the largest reliable put or
	// every put retransmits at least once. Zero disables ReliablePut.
	Timeout sim.Time
	// MaxTries bounds total send attempts (first send included); <= 0 means
	// retry forever.
	MaxTries int
}

// rtxRecord tracks one reliable put awaiting its ack; timer is the
// pending timeout.
type rtxRecord struct {
	ni    *NI
	a     PutArgs
	id    uint64 // message ID of the current attempt
	tries int
	timer sim.Handle
}

// ConfigureRetrans installs the NI's reliable-put configuration.
func (ni *NI) ConfigureRetrans(cfg RetransConfig) { ni.Retrans = cfg }

// buildReliable assembles one attempt's message: a fresh ID per attempt
// (stale acks from superseded attempts must not resolve the current one),
// payload re-staged from the MD, ack always requested, and no send-side
// completion note — delivery is confirmed by the ack, not by injection.
func (ni *NI) buildReliable(rec *rtxRecord) *netsim.Message {
	m := ni.putMessage(&rec.a)
	m.AckReq = true
	rec.id = m.ID
	ni.rtx[m.ID] = rec
	return m
}

// ReliablePut posts a put that is retransmitted until acknowledged (or the
// retry budget runs out). The host core is charged the injection overhead o
// for the first attempt; retransmissions are NIC-autonomous. On the ack the
// MD's CT increments / EQ receives EventAck; on giving up the CT records a
// failure / the EQ receives EventError. The caller must keep the MD buffer
// stable until then: every attempt re-reads it.
func (ni *NI) ReliablePut(now sim.Time, a PutArgs) (sim.Time, error) {
	if ni.Retrans.Timeout <= 0 {
		return now, fmt.Errorf("portals: ReliablePut without ConfigureRetrans (timeout unset)")
	}
	if err := ni.validatePut(a); err != nil {
		return now, err
	}
	rec := ni.rtxFree.Get()
	rec.ni = ni
	rec.a = a
	rec.a.AckReq = true
	rec.tries = 1
	m := ni.buildReliable(rec)
	coreFree := ni.C.HostSend(now, m)
	rec.timer = ni.C.Eng.ScheduleCall(now+ni.Retrans.Timeout, runRtxTimer, rec)
	return coreFree, nil
}

// runRtxTimer is the ScheduleCall entry point for a reliable put's timeout.
// It runs only for an unacked put (the ack cancels it): it resends and
// re-arms, or reports failure and recycles the record when the budget is
// spent.
func runRtxTimer(arg any) {
	rec := arg.(*rtxRecord)
	ni := rec.ni
	now := ni.C.Eng.Now()
	if ni.Retrans.MaxTries > 0 && rec.tries >= ni.Retrans.MaxTries {
		delete(ni.rtx, rec.id)
		ni.RetransFailures++
		ni.C.Faults.RetransFails++
		if md := rec.a.MD; md != nil {
			if md.CT != nil {
				md.CT.IncFailure(now)
			}
			if md.EQ != nil {
				md.EQ.Append(Event{Type: EventError, At: now, Length: rec.a.Length})
			}
		}
		if ni.C.Rec.Enabled() {
			ni.C.Rec.Recordf(ni.Node.Rank, "FAULT", now, now,
				"put to %d abandoned after %d tries", rec.a.Target, rec.tries)
		}
		ni.rtxFree.Put(rec)
		return
	}
	delete(ni.rtx, rec.id)
	rec.tries++
	ni.Retransmits++
	ni.C.Faults.Retransmits++
	if ni.C.Rec.Enabled() {
		ni.C.Rec.Recordf(ni.Node.Rank, "FAULT", now, now,
			"retransmit to %d (try %d)", rec.a.Target, rec.tries)
	}
	m := ni.buildReliable(rec)
	ni.C.Send(now, m)
	rec.timer = ni.C.Eng.ScheduleCall(now+ni.Retrans.Timeout, runRtxTimer, rec)
}
