package handlers

import "repro/internal/core"

// RAID handler state (Appendix C.3.5's primary_info_t / parity_info_t).
const (
	raidSource = 0  // client (data server) / data server (parity server)
	raidParity = 8  // parity server rank (data server only)
	raidOffset = 16 // block base offset in the ME
	raidClient = 24 // originating client (parity server only)
	// RaidStateBytes is the HPU memory a RAID ME needs.
	RaidStateBytes = 32
)

// ParityTag is the match tag parity-update messages carry (PARITY_TAG).
const ParityTag = 53

// RaidPrimaryConfig parameterizes the data-server handlers.
type RaidPrimaryConfig struct {
	// ParityRank is the parity server for this stripe.
	ParityRank int
	// ParityPT is the portal the parity server listens on.
	ParityPT int
	// AckPT/AckBits address the client's acknowledgment ME.
	AckPT   int
	AckBits uint64
	// Offset is the block device region base in the ME.
	Offset int64
}

// RaidPrimaryWrite builds the data-server write handlers (Appendix C.3.5):
// each payload handler reads the old block from host memory, computes the
// parity diff (old XOR new), writes the new block back, and forwards the
// diff to the parity server directly from the device — the server CPU never
// runs. hdr_data carries the client rank so the parity node can complete
// the protocol.
func RaidPrimaryWrite(cfg RaidPrimaryConfig) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			c.SetU64(raidSource, uint64(h.Source))
			c.SetU64(raidOffset, uint64(h.Offset))
			c.SetU64(raidParity, uint64(cfg.ParityRank))
			return core.ProcessData
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			base := int64(c.U64(raidOffset))
			client := c.U64(raidSource)
			parity := int(c.U64(raidParity))
			buf := c.Scratch(p.Size)
			c.DMAFromHostB(base+int64(p.Offset), buf, core.MEHostMem)
			var diff []byte // the diff carries data only if the packet did
			if p.Data != nil {
				xorInto(buf, p.Data) // diff = old ^ new
				diff = buf
			}
			c.ChargePerByteMilli(p.Size, core.MilliCyclesPerByteXOR)
			// The new block is old ^ diff = new; store the new data.
			c.DMAToHostB(p.Data, p.Size, base+int64(p.Offset), core.MEHostMem)
			if err := c.PutFromDevice(diff, p.Size, parity, cfg.ParityPT, ParityTag, base+int64(p.Offset), client); err != nil {
				return core.PayloadFail
			}
			if c.Err() != nil {
				return core.PayloadSegv
			}
			return core.PayloadSuccess
		},
	}
}

// RaidPrimaryRead builds the data-server read header handler: the NIC
// answers a block read with a put-from-host of the requested range, no CPU
// involved. The user header's first 8 bytes carry the read length.
func RaidPrimaryRead(replyPT int) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			length := int(h.HdrData & 0xffffffff)
			if err := c.PutFromHost(core.MEHostMem, h.Offset, length, h.Source, replyPT, h.MatchBits, 0, 0); err != nil {
				return core.HeaderFail
			}
			return core.Proceed
		},
	}
}

// RaidAckForward builds the data-server handler that relays the parity
// server's acknowledgment to the client from the device
// (primary_send_acknowledgement_header_handler).
func RaidAckForward(ackPT int) core.HandlerSet {
	reply := []byte{byte(core.CompletionSuccess)}
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			client := int(h.HdrData)
			if err := c.PutFromDevice(reply, len(reply), client, ackPT, h.MatchBits, 0, 0); err != nil {
				return core.HeaderFail
			}
			return core.Proceed
		},
	}
}

// RaidParityConfig parameterizes the parity-server handlers.
type RaidParityConfig struct {
	// AckPT addresses the data server's ack-forwarding ME.
	AckPT int
	// AckBits is the match tag of ack messages.
	AckBits uint64
	// Offset is the parity region base in the ME.
	Offset int64
}

// RaidParityUpdate builds the parity-server handlers (Appendix C.3.5):
// payload handlers XOR the incoming diff into the parity block in host
// memory; the completion handler acknowledges the data server from the
// device, carrying the client rank so the ack can be forwarded.
func RaidParityUpdate(cfg RaidParityConfig) core.HandlerSet {
	reply := []byte{byte(core.CompletionSuccess)}
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			c.SetU64(raidSource, uint64(h.Source))
			c.SetU64(raidClient, h.HdrData)
			c.SetU64(raidOffset, uint64(h.Offset))
			return core.ProcessData
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			base := int64(c.U64(raidOffset))
			buf := c.Scratch(p.Size)
			c.DMAFromHostB(base+int64(p.Offset), buf, core.MEHostMem)
			if p.Data != nil {
				xorInto(buf, p.Data) // p' = p ^ diff
			}
			c.ChargePerByteMilli(p.Size, core.MilliCyclesPerByteXOR)
			c.DMAToHostB(buf, p.Size, base+int64(p.Offset), core.MEHostMem)
			if c.Err() != nil {
				return core.PayloadSegv
			}
			return core.PayloadSuccess
		},
		Completion: func(c *core.Ctx, dropped int, fc bool) core.CompletionRC {
			src := int(c.U64(raidSource))
			client := c.U64(raidClient)
			if err := c.PutFromDevice(reply, len(reply), src, cfg.AckPT, cfg.AckBits, 0, client); err != nil {
				return core.CompletionFail
			}
			return core.CompletionSuccess
		},
	}
}

// xorInto xors src into dst elementwise (dst ^= src).
func xorInto(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// HostXOR is the CPU-side XOR used by the RDMA baseline and tests.
func HostXOR(dst, src []byte) { xorInto(dst, src) }
