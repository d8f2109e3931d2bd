package handlers

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/sim"
)

func TestPipelineTreeShape(t *testing.T) {
	if got := PipelineTree(0, 4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("children(0) = %v", got)
	}
	if got := PipelineTree(3, 4); got != nil {
		t.Fatalf("tail has children: %v", got)
	}
}

func TestBinomialTreeMatchesHandlerLoop(t *testing.T) {
	for _, p := range []int{2, 8, 64} {
		for r := 0; r < p; r++ {
			got := BinomialTree(r, p)
			seen := map[int]bool{}
			for _, c := range got {
				if c <= r || c >= p || seen[c] {
					t.Fatalf("P=%d rank %d: bad child set %v", p, r, got)
				}
				seen[c] = true
			}
		}
	}
}

// buildTreeBcast wires P ranks with BcastTree MEs over the given tree.
func buildTreeBcast(t *testing.T, c *netsim.Cluster, nis []*portals.NI, size int, tree Tree) ([][]byte, []*portals.EQ) {
	t.Helper()
	bufs := make([][]byte, len(nis))
	eqs := make([]*portals.EQ, len(nis))
	for r, ni := range nis {
		mustPT(t, ni, 0)
		if r == 0 {
			continue
		}
		bufs[r] = make([]byte, size)
		eqs[r] = portals.NewEQ(c.Eng)
		mustAppend(t, ni, 0, &portals.ME{
			Start:     bufs[r],
			MatchBits: 7,
			EQ:        eqs[r],
			HPUMem:    hpuMem(t, ni, BcastStateBytes),
			Handlers: BcastTree(BcastConfig{
				MyRank: r, NProcs: len(nis), PT: 0, Bits: 7,
				Streaming: true, MaxSize: 1 << 30,
			}, tree),
		})
	}
	return bufs, eqs
}

func TestPipelineBroadcastDeliversEverywhere(t *testing.T) {
	const P = 8
	p := netsim.Integrated()
	p.FlowDeadline = 10 * sim.Millisecond
	c, err := netsim.NewCluster(P, p)
	if err != nil {
		t.Fatal(err)
	}
	nis := portals.Setup(c)
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	bufs, _ := buildTreeBcast(t, c, nis, len(data), PipelineTree)
	// Pipeline root sends once, to rank 1.
	nis[0].Put(0, portals.PutArgs{MD: nis[0].MDBind(data, nil, nil), Length: len(data), Target: 1, PTIndex: 0, MatchBits: 7})
	c.Eng.Run()
	for r := 1; r < P; r++ {
		if !bytes.Equal(bufs[r], data) {
			t.Fatalf("rank %d missed the pipeline broadcast", r)
		}
	}
}

func TestPipelineBeatsBinomialForLargeMessages(t *testing.T) {
	// The paper's future-work observation: low HPU forwarding overheads
	// enable streaming algorithms. A chain moves each byte over each link
	// once, so for large messages its completion beats the binomial
	// tree's multi-child serialization at the root.
	const P = 16
	const size = 1 << 20
	run := func(tree Tree, rootTargets []int) sim.Time {
		p := netsim.Integrated()
		p.FlowDeadline = 100 * sim.Millisecond
		c, err := netsim.NewCluster(P, p)
		if err != nil {
			t.Fatal(err)
		}
		nis := portals.Setup(c)
		_, eqs := buildTreeBcast(t, c, nis, size, tree)
		var last sim.Time
		for r := 1; r < P; r++ {
			r := r
			got := 0
			eqs[r].OnEvent(func(ev portals.Event) {
				got += ev.Length
				if got >= size && ev.At > last {
					last = ev.At
				}
			})
		}
		var ts sim.Time
		for _, target := range rootTargets {
			var err error
			ts, err = nis[0].Put(ts, portals.PutArgs{Length: size, Target: target, PTIndex: 0, MatchBits: 7})
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Eng.Run()
		return last
	}
	pipeline := run(PipelineTree, []int{1})
	binomial := run(BinomialTree, BinomialTree(0, P))
	if pipeline >= binomial {
		t.Fatalf("pipeline %v should beat binomial %v at 1 MiB", pipeline, binomial)
	}
}

func TestFTBcastSuppressesDuplicates(t *testing.T) {
	// Three ranks; rank 2 receives the same sequence number from two
	// different sources: only the first copy is deposited.
	c, nis := world(t, 3)
	const size = 1000
	buf := make([]byte, size)
	hm := hpuMem(t, nis[2], FTBcastStateBytes)
	InitFTBcastState(hm.Buf)
	eq := portals.NewEQ(c.Eng)
	mustPT(t, nis[2], 0)
	mustAppend(t, nis[2], 0, &portals.ME{
		Start:      buf,
		IgnoreBits: ^uint64(0),
		EQ:         eq,
		HPUMem:     hm,
		Handlers:   FTBcast(FTBcastConfig{MyRank: 2, NProcs: 3, PT: 0, Bits: 7, Redundancy: 0}),
	})
	first := bytes.Repeat([]byte{0xAA}, size)
	dup := bytes.Repeat([]byte{0xBB}, size)
	nis[0].Put(0, portals.PutArgs{MD: nis[0].MDBind(first, nil, nil), Length: size, Target: 2, PTIndex: 0, HdrData: 9})
	nis[1].Put(10*sim.Microsecond, portals.PutArgs{MD: nis[1].MDBind(dup, nil, nil), Length: size, Target: 2, PTIndex: 0, HdrData: 9})
	c.Eng.Run()
	if !bytes.Equal(buf, first) {
		t.Fatal("first copy not delivered intact")
	}
	// A new sequence number is accepted again.
	next := bytes.Repeat([]byte{0xCC}, size)
	nis[0].Put(c.Eng.Now(), portals.PutArgs{MD: nis[0].MDBind(next, nil, nil), Length: size, Target: 2, PTIndex: 0, HdrData: 10})
	c.Eng.Run()
	if !bytes.Equal(buf, next) {
		t.Fatal("next sequence not delivered")
	}
}

func TestFTBcastRedundantDeliveryConverges(t *testing.T) {
	// All ranks run FT-bcast handlers with redundancy 2; the root's single
	// send floods the binomial graph and every rank delivers exactly once
	// (no infinite forwarding: duplicates die at the dedup CAS).
	const P = 8
	const size = 512
	c, nis := world(t, P)
	bufs := make([][]byte, P)
	for r := 1; r < P; r++ {
		hm := hpuMem(t, nis[r], FTBcastStateBytes)
		InitFTBcastState(hm.Buf)
		bufs[r] = make([]byte, size)
		mustPT(t, nis[r], 0)
		mustAppend(t, nis[r], 0, &portals.ME{
			Start:      bufs[r],
			IgnoreBits: ^uint64(0),
			HPUMem:     hm,
			Handlers:   FTBcast(FTBcastConfig{MyRank: r, NProcs: P, PT: 0, Bits: 7, Redundancy: 2}),
		})
	}
	mustPT(t, nis[0], 0)
	payload := bytes.Repeat([]byte{0x5A}, size)
	// Root floods its own neighbors.
	rootCfg := FTBcastConfig{MyRank: 0, NProcs: P, Redundancy: 2}
	md := nis[0].MDBind(payload, nil, nil)
	var ts sim.Time
	for _, n := range rootCfg.Neighbors() {
		var err error
		ts, err = nis[0].Put(ts, portals.PutArgs{MD: md, Length: size, Target: n, PTIndex: 0, HdrData: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	reached := 0
	for r := 1; r < P; r++ {
		if bytes.Equal(bufs[r], payload) {
			reached++
		}
	}
	// Binomial-graph flooding with redundancy 2 reaches every rank.
	if reached != P-1 {
		t.Fatalf("only %d/%d ranks delivered", reached, P-1)
	}
}
