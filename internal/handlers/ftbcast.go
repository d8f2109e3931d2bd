package handlers

import "repro/internal/core"

// Fault-tolerant broadcast (§5.4): redundant copies of each broadcast
// message travel along a binomial-graph topology so delivery survives up
// to log2(P) failures. Usually every redundant copy is delivered to host
// memory and deduplicated by the CPU; with sPIN the header handler
// suppresses duplicates on the NIC, so only the first copy of each
// sequence number reaches the user — "a transparent reliable broadcast
// service offered by the network".
//
// HPU state layout: a ring of FTBcastWindow sequence slots; slot i holds
// the last sequence number accepted with seq % window == i.
const (
	// FTBcastWindow is the dedup window in outstanding sequence numbers.
	FTBcastWindow = 64
	// FTBcastStateBytes is the HPU memory an FT-bcast ME needs.
	FTBcastStateBytes = 8 * FTBcastWindow

	ftSeqNever = ^uint64(0)
)

// InitFTBcastState marks all dedup slots empty; the host runs this before
// appending the ME.
func InitFTBcastState(state []byte) {
	for i := 0; i < FTBcastWindow; i++ {
		putU64(state, i*8, ftSeqNever)
	}
}

// FTBcastConfig parameterizes the fault-tolerant broadcast handlers.
type FTBcastConfig struct {
	MyRank int
	NProcs int
	PT     int
	Bits   uint64
	// Redundancy is the number of binomial-graph neighbors each rank
	// forwards every accepted message to.
	Redundancy int
	// Peers, when non-nil, is the precomputed forwarding list (what
	// Neighbors computes). Callers building many handler sets — one per
	// rank per sweep point — carve Peers from an arena via AppendNeighbors
	// so FTBcast stays off the allocator.
	Peers []int
}

// Neighbors returns the binomial-graph neighbors (rank + 2^k) that
// forwarding targets, capped at the configured redundancy. It allocates a
// fresh slice; hot callers should use AppendNeighbors and set Peers.
func (cfg FTBcastConfig) Neighbors() []int {
	return cfg.AppendNeighbors(nil)
}

// AppendNeighbors appends the forwarding targets to dst and returns the
// extended slice, so callers can reuse a grow-only arena instead of
// allocating per rank.
func (cfg FTBcastConfig) AppendNeighbors(dst []int) []int {
	n := 0
	for k := 1; k < cfg.NProcs && n < cfg.Redundancy; k *= 2 {
		dst = append(dst, (cfg.MyRank+k)%cfg.NProcs)
		n++
	}
	return dst
}

// FTBcast builds the dedup-and-forward handlers: the header handler
// atomically claims the message's sequence slot in HPU memory; the first
// copy is deposited and re-forwarded, every later copy is dropped on the
// NIC without touching host memory. hdr_data carries the sequence number.
func FTBcast(cfg FTBcastConfig) core.HandlerSet {
	neighbors := cfg.Peers
	if neighbors == nil {
		neighbors = cfg.Neighbors()
	}
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			seq := h.HdrData
			slot := int64(seq%FTBcastWindow) * 8
			// Atomic claim: accept only sequence numbers newer than the
			// slot's last accepted one. Equality is a duplicate, and an
			// older seq colliding modulo the window with a newer accepted
			// one must also drop — but never the other way around: a newer
			// seq reclaims the slot (accept-if-greater), so the window
			// wrapping cannot silently discard fresh broadcasts.
			prev := c.U64(slot)
			if prev != ftSeqNever && seq <= prev {
				return core.Drop // duplicate or stale: already delivered
			}
			if !c.CAS(slot, prev, seq) {
				return core.Drop // lost the race to a concurrent copy
			}
			return core.ProcessData
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			var rc core.PayloadRC = core.PayloadSuccess
			for _, n := range neighbors {
				c.Charge(3)
				if err := c.PutFromDevice(p.Data, p.Size, n, cfg.PT, cfg.Bits, int64(p.Offset), c.HdrData()); err != nil {
					rc = core.PayloadFail
				}
			}
			c.DMAToHostNB(p.Data, p.Size, int64(p.Offset), core.MEHostMem)
			return rc
		},
	}
}
