package portals

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestReliablePutRecoversFromOutage drives a reliable put into a link that
// is down for the first 15 us: the first two attempts are blocked, the
// third lands, and the ack completes the MD's CT and EQ.
func TestReliablePutRecoversFromOutage(t *testing.T) {
	c, nis := pair(t)
	c.SetImpairment(&netsim.Impairment{Blocks: []netsim.LinkBlock{
		{Src: 0, Dst: 1, From: 0, Until: 15 * sim.Microsecond},
	}})
	me, _ := postME(t, nis[1], 0, 0x11, 64)
	nis[0].ConfigureRetrans(RetransConfig{Timeout: 10 * sim.Microsecond})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ct := NewCT(c.Eng)
	eq := NewEQ(c.Eng)
	md := nis[0].MDBind(data, ct, eq)
	if _, err := nis[0].ReliablePut(0, PutArgs{MD: md, Length: len(data), Target: 1, PTIndex: 0, MatchBits: 0x11}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if !bytes.Equal(me.Start[:len(data)], data) {
		t.Fatal("payload never deposited")
	}
	if ct.Get() != 1 || ct.Failures() != 0 {
		t.Fatalf("CT = %d/%d failures, want 1/0", ct.Get(), ct.Failures())
	}
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventAck || evs[0].Length != len(data) {
		t.Fatalf("initiator events = %v", evs)
	}
	if nis[0].Retransmits != 2 || c.Faults.Retransmits != 2 || c.Faults.Blocked != 2 {
		t.Fatalf("retransmits = %d, faults = %+v, want 2 blocked attempts", nis[0].Retransmits, c.Faults)
	}
	if len(nis[0].rtx) != 0 {
		t.Fatalf("%d retransmit records leaked in the id map", len(nis[0].rtx))
	}
}

// TestReliablePutIsAtLeastOnce loses acks instead of data: the target
// deposits the payload once per attempt (at-least-once semantics), the
// initiator completes exactly once.
func TestReliablePutIsAtLeastOnce(t *testing.T) {
	c, nis := pair(t)
	c.SetImpairment(&netsim.Impairment{Blocks: []netsim.LinkBlock{
		{Src: 1, Dst: 0, From: 0, Until: 15 * sim.Microsecond},
	}})
	_, targetEQ := postME(t, nis[1], 0, 0x11, 64)
	nis[0].ConfigureRetrans(RetransConfig{Timeout: 10 * sim.Microsecond})
	data := []byte{9, 9, 9, 9}
	ct := NewCT(c.Eng)
	md := nis[0].MDBind(data, ct, nil)
	if _, err := nis[0].ReliablePut(0, PutArgs{MD: md, Length: len(data), Target: 1, PTIndex: 0, MatchBits: 0x11}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	deposits := 0
	for _, ev := range targetEQ.Events() {
		if ev.Type == EventPut {
			deposits++
		}
	}
	if deposits < 2 {
		t.Fatalf("%d deposits; lost acks must cause duplicate delivery (at-least-once)", deposits)
	}
	if ct.Get() != 1 {
		t.Fatalf("initiator completed %d times, want exactly 1", ct.Get())
	}
	if nis[0].Retransmits == 0 {
		t.Fatal("no retransmissions despite blocked acks")
	}
}

// TestReliablePutGivesUpAfterMaxTries exhausts the retry budget into a
// permanently dead link: the MD reports the failure and the records drain.
func TestReliablePutGivesUpAfterMaxTries(t *testing.T) {
	c, nis := pair(t)
	c.SetImpairment(&netsim.Impairment{Blocks: []netsim.LinkBlock{{Src: 0, Dst: 1}}})
	postME(t, nis[1], 0, 0x11, 64)
	nis[0].ConfigureRetrans(RetransConfig{Timeout: 5 * sim.Microsecond, MaxTries: 3})
	ct := NewCT(c.Eng)
	eq := NewEQ(c.Eng)
	md := nis[0].MDBind(make([]byte, 8), ct, eq)
	if _, err := nis[0].ReliablePut(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0x11}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if ct.Get() != 0 || ct.Failures() != 1 {
		t.Fatalf("CT = %d/%d failures, want 0/1", ct.Get(), ct.Failures())
	}
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventError {
		t.Fatalf("events = %v, want one EventError", evs)
	}
	if nis[0].Retransmits != 2 || nis[0].RetransFailures != 1 {
		t.Fatalf("retransmits = %d, failures = %d, want 2 (tries 2,3) and 1",
			nis[0].Retransmits, nis[0].RetransFailures)
	}
	if c.Faults.RetransFails != 1 || c.Faults.Blocked != 3 {
		t.Fatalf("faults = %+v", c.Faults)
	}
	if len(nis[0].rtx) != 0 {
		t.Fatalf("%d records leaked after give-up", len(nis[0].rtx))
	}
}

func TestReliablePutNeedsConfiguration(t *testing.T) {
	_, nis := pair(t)
	if _, err := nis[0].ReliablePut(0, PutArgs{Length: 8, Target: 1}); err == nil {
		t.Fatal("ReliablePut without ConfigureRetrans must error")
	}
}

// TestReliablePutDeterministicAfterReset re-runs the outage scenario on a
// reset NI and expects identical counters: records, ids, and timers must
// not leak across Reset.
func TestReliablePutDeterministicAfterReset(t *testing.T) {
	c, nis := pair(t)
	c.SetImpairment(&netsim.Impairment{Seed: 4, Loss: 0.3, Jitter: sim.Microsecond})
	run := func() (uint64, netsim.FaultStats, sim.Time) {
		me, _ := postME(t, nis[1], 0, 0x11, 64)
		nis[0].ConfigureRetrans(RetransConfig{Timeout: 10 * sim.Microsecond})
		ct := NewCT(c.Eng)
		md := nis[0].MDBind([]byte{1, 2, 3, 4}, ct, nil)
		for i := 0; i < 4; i++ {
			if _, err := nis[0].ReliablePut(sim.Time(i)*sim.Microsecond, PutArgs{
				MD: md, Length: 4, Target: 1, PTIndex: 0, MatchBits: 0x11,
			}); err != nil {
				t.Fatal(err)
			}
		}
		c.Eng.Run()
		_ = me
		return ct.Get(), c.Faults, c.Eng.Now()
	}
	got1, faults1, end1 := run()
	if got1 != 4 {
		t.Fatalf("completed %d of 4 puts", got1)
	}
	c.Reset()
	for _, ni := range nis {
		ni.Reset()
	}
	got2, faults2, end2 := run()
	if got1 != got2 || faults1 != faults2 || end1 != end2 {
		t.Fatalf("reset run diverged: %d/%+v/%v vs %d/%+v/%v", got1, faults1, end1, got2, faults2, end2)
	}
}

// TestAckCancelsRetransmitTimer pins that an acknowledged reliable put
// leaves nothing behind: the ack cancels the pending timeout and recycles
// the record, so the run ends at the ack, well before the timeout would
// have fired, with the record back on the NI's free list.
func TestAckCancelsRetransmitTimer(t *testing.T) {
	c, nis := pair(t)
	postME(t, nis[1], 0, 0x11, 64)
	nis[0].ConfigureRetrans(RetransConfig{Timeout: sim.Second})
	ct := NewCT(c.Eng)
	md := nis[0].MDBind([]byte{1, 2, 3, 4, 5, 6, 7, 8}, ct, nil)
	if _, err := nis[0].ReliablePut(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0x11}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if ct.Get() != 1 || nis[0].Retransmits != 0 {
		t.Fatalf("CT = %d, retransmits = %d; want one ack and no resend", ct.Get(), nis[0].Retransmits)
	}
	if now := c.Eng.Now(); now >= nis[0].Retrans.Timeout {
		t.Fatalf("run ended at %v, want the ack's time, below the %v timeout", now, nis[0].Retrans.Timeout)
	}
	if len(nis[0].rtx) != 0 || nis[0].rtxFree.Len() != 1 {
		t.Fatalf("%d records in the id map and %d on the free list, want 0 and 1", len(nis[0].rtx), nis[0].rtxFree.Len())
	}
}
