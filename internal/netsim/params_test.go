package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPresetsDiffer(t *testing.T) {
	i, d := Integrated(), Discrete()
	if i.DMA.Name != "int" || d.DMA.Name != "dis" {
		t.Fatal("preset names wrong")
	}
	if i.DMA.L >= d.DMA.L {
		t.Fatal("integrated DMA latency should be lower")
	}
	if i.DMA.GFemtoPerByte >= d.DMA.GFemtoPerByte {
		t.Fatal("integrated DMA bandwidth should be higher")
	}
	// The network side is identical across NIC types.
	if i.O != d.O || i.Gap != d.Gap || i.GFemtoPerByte != d.GFemtoPerByte || i.MTU != d.MTU {
		t.Fatal("network parameters should not depend on NIC attachment")
	}
}

func TestParseNIC(t *testing.T) {
	cases := []struct {
		in      string
		want    string // DMA preset name; "" = rejected
		wantErr bool
	}{
		{"int", "int", false},
		{"dis", "dis", false},
		{"", "", true},
		{"discrete", "", true},
		{"DIS", "", true},
		{"integrated", "", true},
		{" int", "", true},
	}
	for _, c := range cases {
		p, err := ParseNIC(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseNIC(%q) = %s NIC, want an error", c.in, p.DMA.Name)
			} else if !strings.Contains(err.Error(), "int, dis") {
				t.Errorf("ParseNIC(%q) error %q does not name the valid values", c.in, err)
			}
			continue
		}
		if err != nil || p.DMA.Name != c.want {
			t.Errorf("ParseNIC(%q) = %q, %v; want %q", c.in, p.DMA.Name, err, c.want)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	p := Integrated()
	if p.O != 65*sim.Nanosecond {
		t.Errorf("o = %v", p.O)
	}
	if p.Gap != 6700*sim.Picosecond {
		t.Errorf("g = %v", p.Gap)
	}
	if p.HeaderMatch != 30*sim.Nanosecond || p.CAMLookup != 2*sim.Nanosecond {
		t.Error("matching costs wrong")
	}
	if p.NumHPUs != 4 {
		t.Errorf("NumHPUs = %d", p.NumHPUs)
	}
	if p.HPUCycle != 400*sim.Picosecond {
		t.Errorf("HPU cycle = %v (want 2.5 GHz)", p.HPUCycle)
	}
	if p.HostCores != 8 || p.DRAMLatency != 51*sim.Nanosecond {
		t.Error("host CPU parameters wrong")
	}
	// 50 GiB/s line rate: 1 MiB serializes in ~21 us.
	if got := p.GBytes(1 << 20); got < 20*sim.Microsecond || got > 22*sim.Microsecond {
		t.Errorf("GBytes(1MiB) = %v", got)
	}
}

func TestMemCopyModel(t *testing.T) {
	p := Integrated()
	if p.MemCopy(1000) != 2*p.MemTouch(1000) {
		t.Fatal("copy is two passes")
	}
	if p.MemTouch(0) != 0 {
		t.Fatal("zero-byte touch should be free")
	}
}

// Property: packet occupancy is monotone in size and bounded below by g.
func TestOccupancyMonotoneProperty(t *testing.T) {
	p := Integrated()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		ox, oy := p.PacketOccupancy(x), p.PacketOccupancy(y)
		return ox <= oy && ox >= p.Gap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: message rate is bounded by the paper's 12.2-150 Mmps band for
// packet sizes up to the MTU.
func TestArrivalRateBand(t *testing.T) {
	p := Integrated()
	for _, s := range []int{1, 64, 335, 1024, 4096} {
		occ := p.PacketOccupancy(s)
		mmps := 1e12 / float64(occ) / 1e6
		if mmps < 12 || mmps > 150.1 {
			t.Fatalf("packet size %d: %.1f Mmps outside the paper's band", s, mmps)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, err := NewCluster(2, Integrated())
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Recv = &collector{}
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 10000})
	c.Send(0, &Message{Type: OpPut, Src: 0, Dst: 1, Length: 8})
	c.Eng.Run()
	if c.MessagesSent != 2 {
		t.Fatalf("MessagesSent = %d", c.MessagesSent)
	}
	if c.PacketsSent != 4 {
		t.Fatalf("PacketsSent = %d", c.PacketsSent)
	}
	if c.BytesSent != 10008 {
		t.Fatalf("BytesSent = %d", c.BytesSent)
	}
}
