package handlers

import "repro/internal/core"

// Broadcast handler state (Appendix C.3.3's bcast_info_t).
const (
	bcStream = 0
	bcMyRank = 8
	bcNProcs = 16
	bcLength = 24
	bcOffset = 32
	// BcastStateBytes is the HPU memory a broadcast ME needs.
	BcastStateBytes = 40
)

// BcastConfig parameterizes the Appendix C.3.3 binomial broadcast handlers.
type BcastConfig struct {
	MyRank int
	NProcs int
	PT     int
	Bits   uint64
	// Streaming forwards every packet from the device (wormhole-style);
	// otherwise single-packet messages go from the device and larger
	// ones from host memory after deposit (store-and-forward).
	Streaming bool
	MaxSize   int
}

// binomialChildren invokes fn for every child of rank in a binomial tree
// rooted at 0, charging one loop iteration on c per step. This is the loop
// body shared by the payload and completion handlers.
func binomialChildren(c *core.Ctx, rank, nprocs int, fn func(child int)) {
	for half := nprocs / 2; half >= 1; half /= 2 {
		c.Charge(3) // compare, modulo, branch
		if rank%(half*2) == 0 && rank+half < nprocs {
			fn(rank + half)
		}
	}
}

// Bcast builds the Appendix C.3.3 handler set: intermediate nodes forward
// packets down the binomial tree directly from the NIC, so multi-packet
// messages pipeline through the tree like wormhole routing. In addition to
// the published code, the payload handler deposits each packet into host
// memory with a nonblocking DMA — intermediate ranks are also broadcast
// recipients (visible as DMA lanes in the paper's trace diagrams).
func Bcast(cfg BcastConfig) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			c.SetU64(bcMyRank, uint64(cfg.MyRank))
			c.SetU64(bcNProcs, uint64(cfg.NProcs))
			c.SetU64(bcOffset, uint64(h.Offset))
			if h.Length > cfg.MaxSize || !cfg.Streaming {
				c.SetU64(bcStream, 0)
				c.SetU64(bcLength, uint64(h.Length))
				return core.Proceed
			}
			c.SetU64(bcStream, 1)
			return core.ProcessData
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			rank := int(c.U64(bcMyRank))
			nprocs := int(c.U64(bcNProcs))
			// Forwarded packets become single-packet messages, so the
			// original message offset must travel in the put's remote
			// offset for deeper tree levels to deposit correctly.
			off := int64(c.U64(bcOffset))
			var rc core.PayloadRC = core.PayloadSuccess
			binomialChildren(c, rank, nprocs, func(child int) {
				if err := c.PutFromDevice(p.Data, p.Size, child, cfg.PT, cfg.Bits, off+int64(p.Offset), 0); err != nil {
					rc = core.PayloadFail
				}
			})
			// Deliver this rank's copy to host memory, overlapped with
			// forwarding.
			c.DMAToHostNB(p.Data, p.Size, off+int64(p.Offset), core.MEHostMem)
			return rc
		},
		Completion: func(c *core.Ctx, dropped int, fc bool) core.CompletionRC {
			if c.U64(bcStream) != 0 {
				return core.CompletionSuccess
			}
			rank := int(c.U64(bcMyRank))
			nprocs := int(c.U64(bcNProcs))
			length := int(c.U64(bcLength))
			off := int64(c.U64(bcOffset))
			var rc core.CompletionRC = core.CompletionSuccess
			binomialChildren(c, rank, nprocs, func(child int) {
				if err := c.PutFromHost(core.MEHostMem, off, length, child, cfg.PT, cfg.Bits, off, 0); err != nil {
					rc = core.CompletionFail
				}
			})
			return rc
		},
	}
}
