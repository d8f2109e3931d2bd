package netsim

import (
	"testing"

	"repro/internal/sim"
)

func TestParseImpairmentRoundTrip(t *testing.T) {
	spec := "loss=0.25,lossn=10,corrupt=0.5,latency=500ns,jitter=2us,throttle=5fs,seed=7,fail=0:1:0,fail=*:3:1us:2us"
	im, err := ParseImpairment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if im.Loss != 0.25 || im.LossEveryN != 10 || im.Corrupt != 0.5 {
		t.Fatalf("probabilities: %+v", im)
	}
	if im.ExtraLatency != 500*sim.Nanosecond || im.Jitter != 2*sim.Microsecond {
		t.Fatalf("durations: %+v", im)
	}
	if im.ThrottleFemtoPerByte != 5 || im.Seed != 7 {
		t.Fatalf("throttle/seed: %+v", im)
	}
	want := []LinkBlock{{Src: 0, Dst: 1}, {Src: -1, Dst: 3, From: sim.Microsecond, Until: 2 * sim.Microsecond}}
	if len(im.Blocks) != 2 || im.Blocks[0] != want[0] || im.Blocks[1] != want[1] {
		t.Fatalf("blocks: %+v", im.Blocks)
	}
	// The canonical key parses back to an identical configuration.
	im2, err := ParseImpairment(im.Key())
	if err != nil {
		t.Fatalf("Key %q does not re-parse: %v", im.Key(), err)
	}
	if im.Key() != im2.Key() {
		t.Fatalf("key not canonical: %q vs %q", im.Key(), im2.Key())
	}
	if (&Impairment{}).Key() != "" || (*Impairment)(nil).Key() != "" {
		t.Fatal("disabled impairment should have empty key")
	}
}

func TestParseImpairmentErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "loss", "loss=1.5", "loss=-0.1", "lossn=-2",
		"jitter=2", "latency=abcns", "seed=-2", "fail=0:1", "fail=x:1:0", "fail=-4:1:0",
	} {
		if _, err := ParseImpairment(spec); err == nil {
			t.Errorf("ParseImpairment(%q) accepted", spec)
		}
	}
}

func TestSetImpairmentNormalizesDisabled(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	// A seed alone injects nothing, so the cluster must stay on the
	// zero-overhead fast path.
	c.SetImpairment(&Impairment{Seed: 99})
	if c.Impaired() {
		t.Fatal("seed-only impairment should normalize to nil")
	}
	c.SetImpairment(&Impairment{Loss: 0.5})
	if !c.Impaired() {
		t.Fatal("loss impairment not installed")
	}
	c.SetImpairment(nil)
	if c.Impaired() {
		t.Fatal("nil impairment not removed")
	}
}

func TestLossEveryNDropsExactCount(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{LossEveryN: 2})
	col := &collector{}
	c.Nodes[1].Recv = col
	// 10 packets on the 0->1 link: every 2nd one dies.
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 10 * 4096})
	c.Eng.Run()
	if len(col.pkts) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(col.pkts))
	}
	for i, pkt := range col.pkts {
		if pkt.Index != 2*i {
			t.Fatalf("packet %d has index %d, want %d (periodic loss pattern)", i, pkt.Index, 2*i)
		}
	}
	if c.Faults.Lost != 5 || c.Faults.Blocked != 0 {
		t.Fatalf("faults = %+v", c.Faults)
	}
}

func TestRandomLossIsAPureFunctionOfSeed(t *testing.T) {
	run := func() ([]Packet, []sim.Time, FaultStats) {
		c := mkCluster(t, 2, Integrated())
		c.SetImpairment(&Impairment{Seed: 42, Loss: 0.4})
		col := &collector{}
		c.Nodes[1].Recv = col
		for i := 0; i < 8; i++ {
			c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 3 * 4096})
		}
		c.Eng.Run()
		return col.pkts, col.times, c.Faults
	}
	p1, t1, f1 := run()
	p2, t2, f2 := run()
	if f1.Lost == 0 || f1.Lost == 24 {
		t.Fatalf("loss=0.4 over 24 packets lost %d; want some but not all", f1.Lost)
	}
	if f1 != f2 || len(p1) != len(p2) {
		t.Fatalf("fresh re-run diverged: %+v vs %+v", f1, f2)
	}
	for i := range p1 {
		if p1[i].Index != p2[i].Index || t1[i] != t2[i] {
			t.Fatalf("delivery %d diverged: #%d@%v vs #%d@%v", i, p1[i].Index, t1[i], p2[i].Index, t2[i])
		}
	}
}

func TestImpairedResetReplaysFaultSchedule(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{Seed: 9, Loss: 0.3, Jitter: sim.Microsecond})
	run := func() ([]sim.Time, FaultStats) {
		col := &collector{}
		c.Nodes[1].Recv = col
		for i := 0; i < 6; i++ {
			c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 2 * 4096})
		}
		c.Eng.Run()
		return col.times, c.Faults
	}
	t1, f1 := run()
	c.Reset()
	if !c.Impaired() {
		t.Fatal("impairment must survive Reset")
	}
	t2, f2 := run()
	if f1 != f2 || len(t1) != len(t2) {
		t.Fatalf("reset run diverged: %+v vs %+v", f1, f2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d at %v after reset, want %v", i, t2[i], t1[i])
		}
	}
}

func TestExtraLatencyAndThrottleShiftDelivery(t *testing.T) {
	base := mkCluster(t, 2, Integrated())
	col0 := &collector{}
	base.Nodes[1].Recv = col0
	base.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 4096})
	base.Eng.Run()

	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{ExtraLatency: sim.Microsecond, ThrottleFemtoPerByte: 1000})
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 4096})
	c.Eng.Run()

	if len(col.pkts) != 1 || len(col0.pkts) != 1 {
		t.Fatalf("deliveries: %d impaired, %d baseline", len(col.pkts), len(col0.pkts))
	}
	// 1 ps/B over 4096 B plus 1 us of flat extra latency.
	want := col0.times[0] + sim.Microsecond + 4096*sim.Picosecond
	if col.times[0] != want {
		t.Fatalf("impaired delivery at %v, want %v", col.times[0], want)
	}
	if c.Faults.Delayed != 1 {
		t.Fatalf("faults = %+v", c.Faults)
	}
}

func TestJitterNeverReordersWithinAMessage(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	// Jitter far larger than the per-packet spacing: without the FIFO
	// clamp, packets would overtake each other.
	c.SetImpairment(&Impairment{Seed: 3, Jitter: 50 * sim.Microsecond})
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 16 * 4096})
	c.Eng.Run()
	if len(col.pkts) != 16 {
		t.Fatalf("delivered %d packets, want 16", len(col.pkts))
	}
	for i, pkt := range col.pkts {
		if pkt.Index != i {
			t.Fatalf("packet %d delivered out of order (index %d); header-first is a receiver invariant", i, pkt.Index)
		}
		if i > 0 && col.times[i] < col.times[i-1] {
			t.Fatalf("packet %d at %v before predecessor at %v", i, col.times[i], col.times[i-1])
		}
	}
}

func TestLinkBlockWindowAndHeal(t *testing.T) {
	c := mkCluster(t, 3, Integrated())
	c.SetImpairment(&Impairment{Blocks: []LinkBlock{
		{Src: 0, Dst: 1, From: 0, Until: 10 * sim.Microsecond},
	}})
	col := &collector{}
	c.Nodes[1].Recv = col
	// During the outage: dropped. After the heal: delivered. Other links
	// are never affected.
	col2 := &collector{}
	c.Nodes[2].Recv = col2
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 64})
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 2, Length: 64})
	c.Send(20*sim.Microsecond, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 64})
	c.Eng.Run()
	if len(col.pkts) != 1 {
		t.Fatalf("rank 1 got %d packets, want only the post-heal one", len(col.pkts))
	}
	if len(col2.pkts) != 1 {
		t.Fatalf("rank 2 got %d packets, want 1 (link 0->2 never blocked)", len(col2.pkts))
	}
	if c.Faults.Blocked != 1 {
		t.Fatalf("faults = %+v", c.Faults)
	}
	// A permanent wildcard block (Until == 0) never heals.
	c.Reset()
	c.SetImpairment(&Impairment{Blocks: []LinkBlock{{Src: -1, Dst: 1}}})
	col.pkts, col.times = nil, nil
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 64})
	c.Send(30*sim.Microsecond, &Message{Type: OpPut, Src: 2, Dst: 1, Length: 64})
	c.Eng.Run()
	if len(col.pkts) != 0 || c.Faults.Blocked != 2 {
		t.Fatalf("permanent block leaked: %d packets, faults %+v", len(col.pkts), c.Faults)
	}
}

func TestCorruptPacketsAreDiscardedByCRC(t *testing.T) {
	// A corrupt packet traverses the wire and the matching unit, then fails
	// the NIC CRC check: it never reaches the Receiver, and recovery layers
	// observe it as a loss that still consumed bandwidth.
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{Seed: 5, Corrupt: 0.999999})
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 4 * 4096})
	c.Eng.Run()
	if c.Faults.Corrupted == 0 {
		t.Fatal("no packets corrupted at p~1")
	}
	if len(col.pkts) != 4-int(c.Faults.Corrupted) {
		t.Fatalf("%d packets delivered with %d corrupted (of 4)", len(col.pkts), c.Faults.Corrupted)
	}
	for _, pkt := range col.pkts {
		if pkt.corrupt {
			t.Fatal("corrupt packet leaked past the CRC check")
		}
	}
}

func TestLostPooledMessagesQuarantinedUntilReset(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{LossEveryN: 1}) // every packet dies
	col := &collector{}
	c.Nodes[1].Recv = col
	// A pooled multi-packet message that a receiver partially saw can never
	// be recycled mid-run: layers above key state by *Message. With every
	// packet lost and the receiver untouched, the message is recyclable
	// immediately; make it "touched" by losing only the second packet.
	c.SetImpairment(&Impairment{LossEveryN: 2})
	m := c.AllocMessage()
	m.Type, m.Src, m.Dst, m.Length = OpPut, 0, 1, 2*4096
	c.Send(0, m)
	c.Eng.Run()
	if len(col.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1 (second lost)", len(col.pkts))
	}
	if len(c.quarantine) != 1 || c.quarantine[0] != m {
		t.Fatalf("touched faulted message not quarantined (%d quarantined)", len(c.quarantine))
	}
	free := len(c.msgFree)
	c.Reset()
	if len(c.quarantine) != 0 || len(c.msgFree) != free+1 {
		t.Fatalf("reset did not reclaim quarantine: %d left, %d free (was %d)", len(c.quarantine), len(c.msgFree), free)
	}
}

func TestUntouchedLostPooledMessageRecyclesImmediately(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{LossEveryN: 1}) // single-packet message dies on the wire
	c.Nodes[1].Recv = &collector{}
	m := c.AllocMessage()
	m.Type, m.Src, m.Dst, m.Length = OpPut, 0, 1, 64
	c.Send(0, m)
	c.Eng.Run()
	if len(c.quarantine) != 0 {
		t.Fatalf("untouched lost message needlessly quarantined (%d)", len(c.quarantine))
	}
	if len(c.msgFree) != 1 {
		t.Fatalf("lost message not recycled: %d free", len(c.msgFree))
	}
}

// TestLostPooledMessageWithDeliveredRecyclesImmediately: a send-side
// Delivered callback is scheduled with its own argument, so its pending
// event holds no reference to the message. A pooled message whose every
// packet is lost before any receiver saw it is therefore recyclable at
// once, callback or not, and the callback still fires.
func TestLostPooledMessageWithDeliveredRecyclesImmediately(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	c.SetImpairment(&Impairment{LossEveryN: 1})
	c.Nodes[1].Recv = &collector{}
	fired := 0
	m := c.AllocMessage()
	m.Type, m.Src, m.Dst, m.Length = OpPut, 0, 1, 2*4096
	m.Delivered = func(arg any) { *arg.(*int)++ }
	m.DeliveredArg = &fired
	c.Send(0, m)
	c.Eng.Run()
	if fired != 1 {
		t.Fatalf("Delivered fired %d times, want 1", fired)
	}
	if len(c.quarantine) != 0 || len(c.msgFree) != 1 {
		t.Fatalf("lost message with a Delivered callback: quarantined %d, free %d; want 0 and 1", len(c.quarantine), len(c.msgFree))
	}
}
