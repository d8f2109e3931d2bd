package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// collector records packet deliveries for assertions. It copies each packet:
// the transport recycles Packet memory after ReceivePacket returns.
type collector struct {
	pkts  []Packet
	times []sim.Time
}

func (c *collector) ReceivePacket(now sim.Time, pkt *Packet) {
	c.pkts = append(c.pkts, *pkt)
	c.times = append(c.times, now)
}

func mkCluster(t *testing.T, n int, p Params) *Cluster {
	t.Helper()
	c, err := NewCluster(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := Integrated()
	// g/G crossover at 335 B (§4.4.2).
	cross := float64(p.Gap) * 1000 / float64(p.GFemtoPerByte)
	if cross < 330 || cross > 340 {
		t.Errorf("g/G = %.1f B, want ~335", cross)
	}
	// Line rate 50 GiB/s => 4 KiB packet serializes in ~82 ns.
	if got := p.GBytes(4096); got < 80*sim.Nanosecond || got > 84*sim.Nanosecond {
		t.Errorf("GBytes(4096) = %v, want ~82ns", got)
	}
	// Message rate bound: small packets take g.
	if got := p.PacketOccupancy(8); got != p.Gap {
		t.Errorf("PacketOccupancy(8) = %v, want g = %v", got, p.Gap)
	}
}

func TestPacketization(t *testing.T) {
	p := Integrated()
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {65536, 16},
	}
	for _, c := range cases {
		if got := p.Packets(c.bytes); got != c.want {
			t.Errorf("Packets(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	col := &collector{}
	c.Nodes[1].Recv = col
	msg := &Message{Type: OpPut, Src: 0, Dst: 1, Length: 100, MatchBits: 7}
	c.Send(0, msg)
	c.Eng.Run()
	if len(col.pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(col.pkts))
	}
	pkt := col.pkts[0]
	if !pkt.Header || !pkt.Last || pkt.Size != 100 {
		t.Fatalf("packet = %+v", pkt)
	}
	// time = occupancy (g, since 100B < 335B) + L(0,1) + header match
	want := c.P.Gap + c.P.Topo.Latency(0, 1) + c.P.HeaderMatch
	if col.times[0] != want {
		t.Fatalf("delivery at %v, want %v", col.times[0], want)
	}
}

func TestMultiPacketMessageOffsets(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 10000})
	c.Eng.Run()
	if len(col.pkts) != 3 {
		t.Fatalf("got %d packets, want 3", len(col.pkts))
	}
	wantOff := []int{0, 4096, 8192}
	wantSize := []int{4096, 4096, 10000 - 8192}
	for i, pkt := range col.pkts {
		if pkt.Offset != wantOff[i] || pkt.Size != wantSize[i] {
			t.Errorf("pkt %d: off=%d size=%d, want off=%d size=%d",
				i, pkt.Offset, pkt.Size, wantOff[i], wantSize[i])
		}
		if pkt.Header != (i == 0) || pkt.Last != (i == 2) {
			t.Errorf("pkt %d header/last flags wrong", i)
		}
	}
}

func TestEgressSerializesPackets(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 2 * 4096})
	c.Eng.Run()
	// Packets arrive exactly one serialization apart (full MTU: G-bound).
	gap := col.times[1] - col.times[0]
	// Arrival gap equals injection gap; match cost differs (header vs CAM)
	// so compare against occupancy +- (header-CAM) difference.
	occ := c.P.PacketOccupancy(4096)
	want := occ - (c.P.HeaderMatch - c.P.CAMLookup)
	if gap != want {
		t.Fatalf("inter-packet delivery gap = %v, want %v", gap, want)
	}
}

// TestClusterResetBitIdentical pins the sweep-reuse contract: a workload
// replayed on a Reset cluster must reproduce a fresh cluster's packet
// trajectory exactly — same arrival times, same contents, same stats.
func TestClusterResetBitIdentical(t *testing.T) {
	workload := func(c *Cluster) {
		// Contending multi-packet traffic: exercises egress serialization,
		// the walking event chain, reserved-sequence tie-breaks, and the
		// match unit, all of which Reset must restore.
		c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 2, Length: 10000})
		c.Send(0, &Message{Type: OpPut, Src: 1, Dst: 2, Length: 5000})
		c.Send(c.P.Gap, &Message{Type: OpGet, Src: 0, Dst: 2, GetLength: 64})
		c.Eng.Run()
	}
	fresh := mkCluster(t, 3, Integrated())
	want := &collector{}
	fresh.Nodes[2].Recv = want
	workload(fresh)

	reused := mkCluster(t, 3, Integrated())
	got := &collector{}
	reused.Nodes[2].Recv = got
	workload(reused)
	reused.Reset()
	got.pkts, got.times = got.pkts[:0], got.times[:0] // Reset leaves receivers alone
	if reused.Eng.Now() != 0 || reused.Eng.Pending() != 0 {
		t.Fatalf("engine not reset: now=%v pending=%d", reused.Eng.Now(), reused.Eng.Pending())
	}
	if reused.MessagesSent != 0 || reused.PacketsSent != 0 || reused.BytesSent != 0 {
		t.Fatal("stats not reset")
	}
	if free := reused.Nodes[0].Egress.FreeAt(); free != 0 {
		t.Fatalf("egress still busy until %v after Reset", free)
	}
	workload(reused)

	if len(got.pkts) != len(want.pkts) {
		t.Fatalf("replay delivered %d packets, fresh delivered %d", len(got.pkts), len(want.pkts))
	}
	for i := range want.pkts {
		if got.times[i] != want.times[i] {
			t.Fatalf("packet %d arrived at %v on reused cluster, %v on fresh", i, got.times[i], want.times[i])
		}
		g, w := got.pkts[i], want.pkts[i]
		g.Msg, w.Msg = nil, nil // pointers differ by identity only
		g.node, w.node = nil, nil
		if g != w {
			t.Fatalf("packet %d differs: %+v vs %+v", i, g, w)
		}
	}
	if reused.MessagesSent != fresh.MessagesSent || reused.PacketsSent != fresh.PacketsSent ||
		reused.BytesSent != fresh.BytesSent {
		t.Fatal("replayed stats differ from fresh stats")
	}
	// A second message after the replay draws IDs from the reset counter.
	if id := reused.NextID(); id != fresh.NextID() {
		t.Fatalf("message IDs diverged after reset: %d", id)
	}
}

func TestTwoSendersShareNothing(t *testing.T) {
	// Messages from different sources to different targets do not contend.
	c := mkCluster(t, 4, Integrated())
	c0, c1 := &collector{}, &collector{}
	c.Nodes[2].Recv = c0
	c.Nodes[3].Recv = c1
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 2, Length: 64})
	c.Send(0, &Message{Type: OpPut, Src: 1, Dst: 3, Length: 64})
	c.Eng.Run()
	if len(c0.pkts) != 1 || len(c1.pkts) != 1 {
		t.Fatal("both messages should arrive")
	}
	if c0.times[0] != c1.times[0] {
		t.Fatalf("independent transfers skewed: %v vs %v", c0.times[0], c1.times[0])
	}
}

func TestSameSourceSerializes(t *testing.T) {
	c := mkCluster(t, 3, Integrated())
	col := &collector{}
	c.Nodes[1].Recv = col
	c.Nodes[2].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 4096})
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 2, Length: 4096})
	c.Eng.Run()
	if len(col.times) != 2 {
		t.Fatal("want 2 deliveries")
	}
	diff := col.times[1] - col.times[0]
	if diff != c.P.PacketOccupancy(4096) {
		t.Fatalf("second message should trail by one occupancy, got %v", diff)
	}
}

func TestHostSendChargesOverhead(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	col := &collector{}
	c.Nodes[1].Recv = col
	free := c.HostSend(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 8})
	if free != c.P.O {
		t.Fatalf("core free at %v, want o=%v", free, c.P.O)
	}
	c.Eng.Run()
	want := c.P.O + c.P.Gap + c.P.Topo.Latency(0, 1) + c.P.HeaderMatch
	if col.times[0] != want {
		t.Fatalf("delivery at %v, want %v", col.times[0], want)
	}
}

func TestDeliveredFiresAtLastInjection(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	var at sim.Time = -1
	var got any
	token := new(int)
	msg := &Message{Type: OpPut, Src: 0, Dst: 1, Length: 8192,
		Delivered:    func(arg any) { got, at = arg, c.Eng.Now() },
		DeliveredArg: token}
	c.Send(0, msg)
	c.Eng.Run()
	want := 2 * c.P.PacketOccupancy(4096)
	if at != want {
		t.Fatalf("Delivered at %v, want %v", at, want)
	}
	if got != token {
		t.Fatalf("Delivered arg = %v, want the DeliveredArg %p", got, token)
	}
}

func TestLoopbackWorks(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	col := &collector{}
	c.Nodes[0].Recv = col
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 0, Length: 8})
	c.Eng.Run()
	if len(col.pkts) != 1 {
		t.Fatal("loopback packet lost")
	}
}

func TestClusterValidatesSize(t *testing.T) {
	if _, err := NewCluster(0, Integrated()); err == nil {
		t.Fatal("0-node cluster should fail")
	}
	if _, err := NewCluster(20000, Integrated()); err == nil {
		t.Fatal("oversized cluster should fail")
	}
}

func TestMessageIDsAssigned(t *testing.T) {
	c := mkCluster(t, 2, Integrated())
	m1 := &Message{Type: OpPut, Src: 0, Dst: 1, Length: 1}
	m2 := &Message{Type: OpPut, Src: 0, Dst: 1, Length: 1}
	c.Send(0, m1)
	c.Send(0, m2)
	if m1.ID == 0 || m2.ID == 0 || m1.ID == m2.ID {
		t.Fatalf("IDs not unique: %d %d", m1.ID, m2.ID)
	}
}

// Property: total bytes received equals message length for any size, and
// every packet obeys the MTU.
func TestPacketizationProperty(t *testing.T) {
	p := Integrated()
	f := func(raw uint32) bool {
		length := int(raw % (1 << 20))
		c, err := NewCluster(2, p)
		if err != nil {
			return false
		}
		col := &collector{}
		c.Nodes[1].Recv = col
		c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: length})
		c.Eng.Run()
		total := 0
		for _, pkt := range col.pkts {
			if pkt.Size > p.MTU || pkt.Size < 0 {
				return false
			}
			total += pkt.Size
		}
		return total == length && len(col.pkts) == p.Packets(length)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOpTypeStrings(t *testing.T) {
	for op, want := range map[OpType]string{
		OpPut: "put", OpGet: "get", OpGetResponse: "get-resp",
		OpAtomic: "atomic", OpAck: "ack",
	} {
		if op.String() != want {
			t.Errorf("OpType(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

// TestPooledRecordsComeBackZeroed checks each of a cluster's free lists: a
// record that was dirtied in every field and put back comes back zero.
func TestPooledRecordsComeBackZeroed(t *testing.T) {
	var c Cluster
	for _, err := range []error{
		simtest.RecycledZero(&c.pktFree),
		simtest.RecycledZero(&c.walkFree),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}
