package bench

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

func TestPingPongOrderingSmallMessages(t *testing.T) {
	// The paper's headline micro-result (Fig. 3b/3c): for small messages
	// sPIN < P4 < RDMA, because sPIN replies from the NIC buffer, P4
	// avoids the CPU, and RDMA pays poll+match+post.
	for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
		rdma, err := PingPongHalfRTT(p, RDMA, 8, noise.None())
		if err != nil {
			t.Fatal(err)
		}
		p4, err := PingPongHalfRTT(p, P4, 8, noise.None())
		if err != nil {
			t.Fatal(err)
		}
		spin, err := PingPongHalfRTT(p, SpinStore, 8, noise.None())
		if err != nil {
			t.Fatal(err)
		}
		if !(spin < p4 && p4 < rdma) {
			t.Fatalf("%s: ordering violated: sPIN=%v P4=%v RDMA=%v", p.DMA.Name, spin, p4, rdma)
		}
		// All in the sub-two-microsecond ballpark of the paper's insets.
		if spin < 200*sim.Nanosecond || rdma > 3*sim.Microsecond {
			t.Fatalf("%s: implausible magnitudes: sPIN=%v RDMA=%v", p.DMA.Name, spin, rdma)
		}
	}
}

func TestPingPongStreamWinsLarge(t *testing.T) {
	p := netsim.Discrete()
	store, err := PingPongHalfRTT(p, SpinStore, 1<<18, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := PingPongHalfRTT(p, SpinStream, 1<<18, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	rdma, err := PingPongHalfRTT(p, RDMA, 1<<18, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	if !(stream < store && stream < rdma) {
		t.Fatalf("stream=%v store=%v rdma=%v", stream, store, rdma)
	}
}

func TestPingPongStoreTracksStoreReferences(t *testing.T) {
	// §4.4.3: store-and-forward is within a few percent of streaming for
	// single-packet messages and of P4 for multi-packet messages.
	p := netsim.Integrated()
	small, err := PingPongHalfRTT(p, SpinStore, 512, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := PingPongHalfRTT(p, SpinStream, 512, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	if small != stream {
		t.Fatalf("single-packet store %v != stream %v", small, stream)
	}
	big, err := PingPongHalfRTT(p, SpinStore, 1<<16, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	p4, err := PingPongHalfRTT(p, P4, 1<<16, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big) / float64(p4)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("multi-packet store %v vs P4 %v (ratio %.2f), want within ~15%%", big, p4, ratio)
	}
}

func TestAccumulateCrossover(t *testing.T) {
	// Fig. 3d: sPIN loses for small accumulates (DMA round trip), wins
	// for large ones (streaming pipelining).
	p := netsim.Discrete()
	smallRDMA, err := AccumulateTime(p, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	smallSpin, err := AccumulateTime(p, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	if smallSpin <= smallRDMA {
		t.Fatalf("small accumulate: sPIN %v should exceed RDMA %v (250ns DMA latency)", smallSpin, smallRDMA)
	}
	bigRDMA, err := AccumulateTime(p, false, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	bigSpin, err := AccumulateTime(p, true, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if bigSpin >= bigRDMA {
		t.Fatalf("large accumulate: sPIN %v should beat RDMA %v", bigSpin, bigRDMA)
	}
}

func TestHPUsNeededMatchesPaperAnchors(t *testing.T) {
	p := netsim.Integrated()
	if got := GBoundCrossover(p); got != 335 {
		t.Fatalf("g/G = %d, want 335", got)
	}
	ts := MaxHandlerTimeSmall(p, 8)
	if ts < 53*sim.Nanosecond || ts > 54*sim.Nanosecond {
		t.Fatalf("T̂s = %v, want ~53.6ns", ts)
	}
	tl := MaxHandlerTimeLine(p, 8, 4096)
	if tl < 640*sim.Nanosecond || tl > 660*sim.Nanosecond {
		t.Fatalf("T̂l(4096) = %v, want ~650ns", tl)
	}
	// Monotonicity: more handler time never needs fewer HPUs.
	prev := 0
	for _, T := range []sim.Time{50, 100, 200, 400, 800, 1600} {
		n := HPUsNeeded(p, T*sim.Nanosecond, 1024)
		if n < prev {
			t.Fatalf("HPUsNeeded not monotone in T")
		}
		prev = n
	}
	// Larger packets at line rate allow longer handlers (fewer HPUs).
	if HPUsNeeded(p, 500*sim.Nanosecond, 4096) > HPUsNeeded(p, 500*sim.Nanosecond, 512) {
		t.Fatal("HPUsNeeded should not grow with packet size")
	}
}

func TestBroadcastOrderingAndScaling(t *testing.T) {
	p := netsim.Discrete()
	for _, size := range []int{8, 64 << 10} {
		rdma, err := BroadcastTime(p, RDMA, 64, size)
		if err != nil {
			t.Fatal(err)
		}
		p4, err := BroadcastTime(p, P4, 64, size)
		if err != nil {
			t.Fatal(err)
		}
		spin, err := BroadcastTime(p, SpinStream, 64, size)
		if err != nil {
			t.Fatal(err)
		}
		if !(spin < p4 && p4 < rdma) {
			t.Fatalf("size %d: sPIN=%v P4=%v RDMA=%v", size, spin, p4, rdma)
		}
	}
	// Latency grows with the tree depth.
	small, err := BroadcastTime(p, SpinStream, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BroadcastTime(p, SpinStream, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("broadcast latency did not grow with P: %v vs %v", small, big)
	}
}

func TestStridedReceiveShape(t *testing.T) {
	p := netsim.Integrated()
	// RDMA varies mildly with blocksize (the paper's 8.7-11.4 GiB/s band:
	// per-block boundary overhead, see hostsim.CPU.StridedCopy) — slower
	// at tiny blocks, never by more than the band's ~1.31x ratio. The
	// endpoint calibration itself is pinned by
	// TestFig7aRDMACurveSpansPaperRange.
	r16, err := StridedReceiveTime(p, false, 16)
	if err != nil {
		t.Fatal(err)
	}
	r4k, err := StridedReceiveTime(p, false, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r16 <= r4k {
		t.Fatalf("RDMA should slow down at tiny blocks: %v vs %v", r16, r4k)
	}
	if ratio := float64(r16) / float64(r4k); ratio > 1.35 {
		t.Fatalf("RDMA blocksize sensitivity too strong: %v vs %v (%.2fx)", r16, r4k, ratio)
	}
	// sPIN: small blocks dominated by per-transaction DMA overhead,
	// large blocks near line rate and well below RDMA.
	s16, err := StridedReceiveTime(p, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	s4k, err := StridedReceiveTime(p, true, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if s16 <= r16 {
		t.Fatalf("16B blocks: sPIN %v should exceed RDMA %v", s16, r16)
	}
	if s4k >= r4k {
		t.Fatalf("4KiB blocks: sPIN %v should beat RDMA %v", s4k, r4k)
	}
	// Large-block sPIN bandwidth approaches line rate (>35 GiB/s).
	bw := float64(DDTTotalBytes) / (float64(s4k) * 1e-12) / (1 << 30)
	if bw < 35 {
		t.Fatalf("sPIN large-block bandwidth %.1f GiB/s, want > 35", bw)
	}
}

func TestRaidShape(t *testing.T) {
	p := netsim.Discrete()
	smallRDMA, err := RaidUpdateTime(p, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	smallSpin, err := RaidUpdateTime(p, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Comparable for small transfers (within ~2x either way).
	ratio := float64(smallSpin) / float64(smallRDMA)
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("small RAID update ratio %.2f (sPIN %v, RDMA %v)", ratio, smallSpin, smallRDMA)
	}
	bigRDMA, err := RaidUpdateTime(p, false, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	bigSpin, err := RaidUpdateTime(p, true, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if bigSpin >= bigRDMA {
		t.Fatalf("large RAID update: sPIN %v should beat RDMA %v", bigSpin, bigRDMA)
	}
}

func TestTablesRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var sbPrint, sbCSV stringsBuilder
	tab.Fprint(&sbPrint)
	tab.CSV(&sbCSV)
	if sbPrint.String() == "" || sbCSV.String() == "" {
		t.Fatal("empty render")
	}
}

type stringsBuilder struct{ buf []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
func (s *stringsBuilder) String() string { return string(s.buf) }
