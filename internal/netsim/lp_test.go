package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fattree"
	"repro/internal/sim"
)

// lpRecord is one observed packet delivery, stripped of pointers so serial
// and LP runs compare by value.
type lpRecord struct {
	at     sim.Time
	src    int
	index  int
	offset int
	size   int
}

// lpCollector records deliveries at one node and optionally echoes a reply
// to the packet's source when a message's last packet lands — generating
// in-window traffic that crosses partition boundaries mid-run.
type lpCollector struct {
	c    *Cluster // root cluster; Send routes to the owning shard
	rank int
	echo bool
	recs []lpRecord
}

func (l *lpCollector) ReceivePacket(now sim.Time, pkt *Packet) {
	l.recs = append(l.recs, lpRecord{
		at: now, src: pkt.Msg.Src, index: pkt.Index, offset: pkt.Offset, size: pkt.Size,
	})
	if l.echo && pkt.Last && pkt.Msg.MatchBits > 0 {
		// Reply with one hop less of echo budget so storms terminate.
		l.c.Send(now, &Message{
			Type: OpPut, Src: l.rank, Dst: pkt.Msg.Src,
			Length: 64, MatchBits: pkt.Msg.MatchBits - 1,
		})
	}
}

// lpTopology is one adversarial construction for the lookahead-safety suite.
type lpTopology struct {
	name string
	n    int
	lp   int
	topo *fattree.Topology
	imp  *Impairment
}

func lpCases() []lpTopology {
	small := &fattree.Topology{Radix: 4, SwitchDelay: 50 * sim.Nanosecond, WireDelay: 33400 * sim.Picosecond}
	// Near-degenerate delays: the lookahead collapses to a few picoseconds,
	// maximizing window count and barrier pressure.
	fast := &fattree.Topology{Radix: 4, SwitchDelay: 1, WireDelay: 1}
	return []lpTopology{
		// Uniform tree, pod-aligned cuts: the lookahead is the cross-pod
		// path, the friendliest case.
		{name: "uniform-pod-cuts", n: 16, lp: 4, topo: small},
		// Cuts inside a pod: the lookahead drops to the same-pod path.
		{name: "intra-pod-cuts", n: 8, lp: 4, topo: small},
		// Two hosts on one edge switch: block-aligned cutting collapses and
		// the fallback cuts at the same-edge path — the minimum latency the
		// topology can produce at all.
		{name: "same-edge-boundary", n: 2, lp: 2, topo: small},
		// Tiny lookahead: thousands of windows for the same traffic.
		{name: "tiny-lookahead", n: 8, lp: 4, topo: fast},
		// Non-divisor partition count on an uneven cluster.
		{name: "uneven-nondivisor", n: 11, lp: 3, topo: small},
		// Healed failure window on a boundary-crossing link plus jitter:
		// fault verdicts and delayed deliveries must replay identically on
		// the partitioned transport.
		{name: "healed-fail-window", n: 8, lp: 4, topo: small, imp: &Impairment{
			Seed:   23,
			Jitter: 120 * sim.Nanosecond,
			Blocks: []LinkBlock{{Src: 1, Dst: 6, From: 2 * sim.Microsecond, Until: 9 * sim.Microsecond}},
		}},
	}
}

// lpDrive builds a cluster for tc with the given partition count, installs
// collectors on every node, replays a seeded random message storm (plus
// delivery-triggered echoes), and returns the per-node delivery records and
// final statistics.
func lpDrive(t *testing.T, tc lpTopology, lp int) ([][]lpRecord, uint64, uint64, FaultStats) {
	t.Helper()
	p := Integrated()
	p.Topo = tc.topo
	c, err := NewClusterLP(tc.n, p, lp)
	if err != nil {
		t.Fatal(err)
	}
	if lp > 1 && c.LPCount() < 2 {
		t.Fatalf("%s: expected a partitioned cluster at lp=%d, got %d LPs", tc.name, lp, c.LPCount())
	}
	if lp > 1 && c.Lookahead() <= 0 {
		t.Fatalf("%s: non-positive lookahead %v", tc.name, c.Lookahead())
	}
	c.SetImpairment(tc.imp)
	cols := make([]*lpCollector, tc.n)
	for i := range cols {
		cols[i] = &lpCollector{c: c, rank: i, echo: true}
		c.Nodes[i].Recv = cols[i]
	}
	rng := rand.New(rand.NewSource(int64(tc.n)*31 + int64(len(tc.name))))
	for m := 0; m < 120; m++ {
		src := rng.Intn(tc.n)
		dst := rng.Intn(tc.n)
		if dst == src {
			dst = (src + 1) % tc.n
		}
		c.Send(sim.Time(rng.Int63n(int64(4*sim.Microsecond))), &Message{
			Type: OpPut, Src: src, Dst: dst,
			Length:    rng.Intn(9000),
			MatchBits: uint64(rng.Intn(3)), // 0 = no echo; 1..2 = echo chain
		})
	}
	c.Run()
	recs := make([][]lpRecord, tc.n)
	for i := range cols {
		recs[i] = cols[i].recs
	}
	return recs, c.MessagesSent, c.PacketsSent, c.Faults
}

// TestLPMatchesSerialAdversarial is the transport-level lookahead-safety
// property test: across adversarial partitionings — minimal same-edge
// lookahead, near-zero delays, non-divisor partition counts, healed link
// failures — every packet delivery observed by every node must be identical
// (same times, same contents, same order) between the serial cluster and
// the LP cluster, and so must the aggregate statistics. The conservative
// invariant itself is enforced by Cluster.flush, which panics if any
// cross-LP arrival lands below a committed window horizon; running these
// storms at all is the property that no legal schedule trips it.
func TestLPMatchesSerialAdversarial(t *testing.T) {
	for _, tc := range lpCases() {
		serial, sm, sp, sf := lpDrive(t, tc, 1)
		lp, lm, lpk, lf := lpDrive(t, tc, tc.lp)
		if lm != sm || lpk != sp {
			t.Errorf("%s: stats diverged: serial %d msgs/%d pkts, lp %d msgs/%d pkts", tc.name, sm, sp, lm, lpk)
		}
		if lf != sf {
			t.Errorf("%s: fault counters diverged: serial %+v, lp %+v", tc.name, sf, lf)
		}
		for i := range serial {
			if len(serial[i]) != len(lp[i]) {
				t.Errorf("%s: node %d saw %d deliveries serial vs %d lp", tc.name, i, len(serial[i]), len(lp[i]))
				continue
			}
			for j := range serial[i] {
				if serial[i][j] != lp[i][j] {
					t.Errorf("%s: node %d delivery %d diverged: serial %+v, lp %+v", tc.name, i, j, serial[i][j], lp[i][j])
					break
				}
			}
		}
	}
}

// TestLPPartitionConstruction pins the partitioning policy: serial
// fallbacks for lp<=1 and uncuttable clusters, edge-block alignment when
// the cluster is large enough, the unaligned fallback when it is not, and
// non-divisor counts yielding fewer shards rather than empty ones.
func TestLPPartitionConstruction(t *testing.T) {
	p := Integrated()
	p.Topo = &fattree.Topology{Radix: 4, SwitchDelay: 50 * sim.Nanosecond, WireDelay: 33400 * sim.Picosecond}
	samePod := 3*p.Topo.SwitchDelay + 4*p.Topo.WireDelay
	sameEdge := 1*p.Topo.SwitchDelay + 2*p.Topo.WireDelay
	crossPod := 5*p.Topo.SwitchDelay + 6*p.Topo.WireDelay
	cases := []struct {
		n, lp     int
		wantLPs   int
		lookahead sim.Time
	}{
		{n: 16, lp: 1, wantLPs: 1},
		{n: 1, lp: 4, wantLPs: 1},
		{n: 16, lp: 2, wantLPs: 2, lookahead: crossPod}, // cut at the pod boundary
		{n: 8, lp: 4, wantLPs: 4, lookahead: samePod},   // cuts between edge switches
		{n: 2, lp: 2, wantLPs: 2, lookahead: sameEdge},  // unaligned fallback
		{n: 4, lp: 3, wantLPs: 2},                       // rounded cuts collide; fewer shards
	}
	for _, tc := range cases {
		c, err := NewClusterLP(tc.n, p, tc.lp)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.LPCount(); got != tc.wantLPs {
			t.Errorf("n=%d lp=%d: LPCount = %d, want %d", tc.n, tc.lp, got, tc.wantLPs)
		}
		if tc.lookahead > 0 && c.Lookahead() != tc.lookahead {
			t.Errorf("n=%d lp=%d: lookahead = %v, want %v", tc.n, tc.lp, c.Lookahead(), tc.lookahead)
		}
	}
}

// TestLPResetBitIdentical extends the reset-equals-fresh contract to the
// partitioned transport: an LP cluster that ran an impaired storm, once
// Reset, must replay a second storm bit-identically to a fresh LP
// cluster — shard clocks, per-link impairment sequence numbers, message
// IDs, and outboxes all restart.
func TestLPResetBitIdentical(t *testing.T) {
	tc := lpTopology{
		name: "reset", n: 8, lp: 4,
		topo: &fattree.Topology{Radix: 4, SwitchDelay: 50 * sim.Nanosecond, WireDelay: 33400 * sim.Picosecond},
		imp:  &Impairment{Seed: 5, Jitter: 90 * sim.Nanosecond, Loss: 0.05},
	}
	run := func(c *Cluster) []lpRecord {
		cols := make([]*lpCollector, tc.n)
		for i := range cols {
			cols[i] = &lpCollector{c: c, rank: i}
			c.Nodes[i].Recv = cols[i]
		}
		rng := rand.New(rand.NewSource(99))
		for m := 0; m < 60; m++ {
			src, dst := rng.Intn(tc.n), rng.Intn(tc.n)
			if dst == src {
				dst = (src + 1) % tc.n
			}
			c.Send(sim.Time(rng.Int63n(int64(2*sim.Microsecond))), &Message{
				Type: OpPut, Src: src, Dst: dst, Length: rng.Intn(5000),
			})
		}
		c.Run()
		var all []lpRecord
		for i := range cols {
			all = append(all, cols[i].recs...)
		}
		return all
	}
	p := Integrated()
	p.Topo = tc.topo
	fresh, err := NewClusterLP(tc.n, p, tc.lp)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetImpairment(tc.imp)
	want := run(fresh)

	reused, err := NewClusterLP(tc.n, p, tc.lp)
	if err != nil {
		t.Fatal(err)
	}
	reused.SetImpairment(tc.imp)
	run(reused) // dirty every shard
	reused.Reset()
	got := run(reused)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reset LP cluster diverged from fresh:\nfresh: %v\nreset: %v", want, got)
	}
	if len(want) == 0 {
		t.Fatal("storm produced no deliveries")
	}
}
