package netsim

import (
	"fmt"

	"repro/internal/fattree"
	"repro/internal/sim"
)

// Conservative parallel DES over the transport: NewClusterLP partitions the
// node slice into contiguous shards, each owning a private engine, and
// Cluster.Run advances them in conservative windows (sim.Windows) whose
// lookahead is the minimum cross-shard link latency. Every simulated output
// is byte-identical to the serial cluster; see ARCHITECTURE.md "Parallel
// DES" for the normative contract.

// crossSend holds the walk parameters send computes for one message, minus
// the destination-engine sequence numbers, which startWalk assigns on the
// destination cluster. A cross-shard message is parked in the source
// shard's outbox as a crossSend and started at the barrier, so migrated and
// locally scheduled events interleave by (time, stamp, pri) exactly as they
// would on one engine.
type crossSend struct {
	dst     *Cluster // destination shard
	dstNode *Node
	msg     *Message
	length  int
	n       int
	arr     sim.Time // first packet arrival
	stamp   sim.Time // source engine clock at send time
	pri     uint64   // (source send count, source rank) priority key
	occFull sim.Time
	occLast sim.Time
	impSeq  uint64
}

// NewClusterLP builds a cluster partitioned into up to lp logical processes
// for conservative parallel execution. Partition boundaries are contiguous
// and aligned to edge-switch blocks when possible (maximizing the
// cross-shard latency and with it the window size); the lookahead is the
// exact minimum latency between nodes in different shards. When lp <= 1, the
// cluster is too small to cut, or the minimum cross-shard latency is not
// strictly positive, the plain serial cluster is returned — Run then drains
// the single engine exactly as NewCluster's would.
func NewClusterLP(n int, p Params, lp int) (*Cluster, error) {
	c, err := newCluster(n, p)
	if err != nil {
		return nil, err
	}
	c.partition(lp)
	c.attachBuses()
	return c, nil
}

// partition cuts the cluster's nodes into up to lp shards, each owning a
// private engine, or leaves the cluster serial when it cannot cut it.
func (c *Cluster) partition(lp int) {
	if lp <= 1 {
		return
	}
	n, p := len(c.Nodes), c.P
	starts := partitionStarts(n, lp, p.Topo.HostsPerEdge())
	if len(starts) < 2 {
		return
	}
	owner := make([]int, n)
	for s := range starts {
		end := n
		if s+1 < len(starts) {
			end = starts[s+1]
		}
		for i := starts[s]; i < end; i++ {
			owner[i] = s
		}
	}
	la := minCrossLatency(p.Topo, owner)
	if la <= 0 {
		return
	}
	c.lookahead = la
	c.shards = make([]*Cluster, len(starts))
	engines := make([]*sim.Engine, len(starts))
	for s := range c.shards {
		sh := &Cluster{
			Eng:    sim.NewEngine(),
			P:      p,
			Nodes:  c.Nodes,
			root:   c,
			idBase: uint64(s+1) << 48,
		}
		c.shards[s] = sh
		engines[s] = sh.Eng
	}
	for i, s := range owner {
		c.Nodes[i].cluster = c.shards[s]
	}
	c.group = &sim.Windows{Engines: engines, Lookahead: la, Flush: c.flush}
}

// partitionStarts cuts 0..n-1 into up to k contiguous ranges and returns
// their start indices. Cuts are rounded to multiples of block (the
// edge-switch width), which keeps every boundary off a shared edge switch
// and so lifts the cross-shard latency floor from the same-edge to the
// same-pod path. If block-aligned rounding collapses every cut (tiny
// clusters), unaligned cuts are used instead — a smaller lookahead still
// beats none. Duplicate cuts (non-divisor k) are dropped, so the result may
// hold fewer than k ranges.
func partitionStarts(n, k, block int) []int {
	if k > n {
		k = n
	}
	if block < 1 {
		block = 1
	}
	starts := cutAt(n, k, block)
	if len(starts) < 2 && block > 1 {
		starts = cutAt(n, k, 1)
	}
	return starts
}

func cutAt(n, k, block int) []int {
	starts := []int{0}
	for i := 1; i < k; i++ {
		cut := (i*n/k + block/2) / block * block
		if cut <= starts[len(starts)-1] || cut >= n {
			continue
		}
		starts = append(starts, cut)
	}
	return starts
}

// minCrossLatency scans every node pair in different shards and returns the
// smallest link latency — the exact conservative lookahead for this
// partition. O(n^2), paid once at construction.
func minCrossLatency(t *fattree.Topology, owner []int) sim.Time {
	min := sim.Time(-1)
	for i := range owner {
		for j := i + 1; j < len(owner); j++ {
			if owner[i] == owner[j] {
				continue
			}
			if l := t.Latency(i, j); min < 0 || l < min {
				min = l
			}
		}
	}
	return min
}

// Run executes the simulation to completion and returns the final simulated
// time: a serial cluster drains its single engine, an LP root runs the
// conservative window loop across its shard engines and then folds shard
// statistics into its own counters.
func (c *Cluster) Run() sim.Time {
	if c.group == nil {
		return c.Eng.Run()
	}
	// Sends issued before Run execute outside any window, so cross-shard
	// messages may already sit in shard outboxes. Deliver them onto their
	// destination engines first: their arrivals must join the first
	// horizon computation (and nothing is committed yet, so the injection
	// bound is zero).
	c.flush(0)
	end := c.group.Run()
	c.foldStats()
	return end
}

// Processed returns the number of events executed across the cluster's
// engine or shard engines.
func (c *Cluster) Processed() uint64 {
	if c.shards == nil {
		return c.Eng.Processed()
	}
	var n uint64
	for _, s := range c.shards {
		n += s.Eng.Processed()
	}
	return n
}

// LPCount returns the number of logical processes advancing concurrently:
// 1 for a serial cluster.
func (c *Cluster) LPCount() int {
	if len(c.shards) == 0 {
		return 1
	}
	return len(c.shards)
}

// Lookahead returns the conservative window lookahead (0 for a serial
// cluster).
func (c *Cluster) Lookahead() sim.Time { return c.lookahead }

// NodeCluster returns the cluster that owns rank i's node: the shard in LP
// mode, the cluster itself when serial. Protocol layers schedule a node's
// events on its owner's engine.
func (c *Cluster) NodeCluster(i int) *Cluster { return c.Nodes[i].cluster }

// foldStats assigns the shard counter sums to the root's own counters so
// post-run readers (bench fault accounting, experiment stats) see cluster
// totals regardless of the partition count.
func (c *Cluster) foldStats() {
	c.MessagesSent, c.PacketsSent, c.BytesSent = 0, 0, 0
	c.Faults = FaultStats{}
	for _, s := range c.shards {
		c.MessagesSent += s.MessagesSent //simlint:lpowner-ok post-run fold: every shard engine is quiescent
		c.PacketsSent += s.PacketsSent   //simlint:lpowner-ok post-run fold: every shard engine is quiescent
		c.BytesSent += s.BytesSent       //simlint:lpowner-ok post-run fold: every shard engine is quiescent
		c.Faults.Add(s.Faults)           //simlint:lpowner-ok post-run fold: every shard engine is quiescent
	}
}

// flush is the root's window-barrier hook (sim.Windows.Flush): it drains
// every shard's outbox in shard order and injects each cross-shard send as
// a packet walk on its destination shard. Injection order is irrelevant to
// simulated output — every walk event carries its full (arrival, stamp,
// priority) ordering key, and the destination-local sequence numbers
// assigned here only break ties within a single walk — but draining in
// shard order keeps the sequence assignment (and so the whole run)
// deterministic. It runs single-threaded with every shard engine quiescent.
func (c *Cluster) flush(prevBound sim.Time) {
	buf := c.crossBuf[:0]
	for _, s := range c.shards {
		buf = append(buf, s.outbox...) //simlint:lpowner-ok window barrier: shards quiescent, root drains in shard order
		s.outbox = s.outbox[:0]        //simlint:lpowner-ok window barrier: shards quiescent, root drains in shard order
	}
	for i := range buf {
		cs := &buf[i]
		if cs.arr < prevBound {
			// The conservative invariant: nothing injected at a barrier may
			// land below the horizon the engines already committed. A
			// violation means the lookahead overstates the real minimum
			// cross-shard propagation delay — a partitioning bug, never a
			// legal schedule.
			panic(fmt.Sprintf("netsim: lookahead violation: cross-LP arrival %v below committed horizon %v", cs.arr, prevBound))
		}
		cs.dst.startWalk(cs)
		buf[i] = crossSend{} // release the message reference
	}
	c.crossBuf = buf[:0]
}
