package handlers

import "repro/internal/core"

// Tree computes a rank's children in a broadcast forwarding tree. The
// paper notes that sPIN, unlike triggered-op offload engines that
// restrict collectives to pre-defined trees, supports arbitrary
// algorithms including pipeline and double trees (§4.4.3); this hook is
// that generality.
type Tree func(rank, nprocs int) []int

// BinomialTree is the Appendix C.3.3 tree (power-of-two nprocs).
func BinomialTree(rank, nprocs int) []int {
	var out []int
	for half := nprocs / 2; half >= 1; half /= 2 {
		if rank%(half*2) == 0 && rank+half < nprocs {
			out = append(out, rank+half)
		}
	}
	return out
}

// PipelineTree is a chain: rank r forwards to r+1. Depth is linear but
// every link carries each byte exactly once, making it bandwidth-optimal
// for large messages — one of the "new streaming algorithms" the paper's
// low per-packet overheads enable.
func PipelineTree(rank, nprocs int) []int {
	if rank+1 < nprocs {
		return []int{rank + 1}
	}
	return nil
}

// BcastTree builds streaming broadcast handlers over an arbitrary
// forwarding tree. BcastTree(cfg, BinomialTree) forwards to the same
// children as Bcast(cfg) but is not cycle-identical to it: Bcast charges 3
// cycles per halving step of the binomial walk, while BcastTree charges 3
// per child, so ranks with fewer children than steps (leaves above all)
// finish their payload handlers sooner here.
func BcastTree(cfg BcastConfig, tree Tree) core.HandlerSet {
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
			off := int64(c.U64(bcOffset))
			var rc core.PayloadRC = core.PayloadSuccess
			for _, child := range tree(rank, nprocs) {
				c.Charge(3)
				if err := c.PutFromDevice(p.Data, p.Size, child, cfg.PT, cfg.Bits, off+int64(p.Offset), 0); err != nil {
					rc = core.PayloadFail
				}
			}
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
			for _, child := range tree(rank, nprocs) {
				c.Charge(3)
				if err := c.PutFromHost(core.MEHostMem, off, length, child, cfg.PT, cfg.Bits, off, 0); err != nil {
					rc = core.CompletionFail
				}
			}
			return rc
		},
	}
}
