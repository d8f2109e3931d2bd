package handlers

import "repro/internal/core"

// Ping-pong handler state layout in HPU memory (Appendix C.3.1's
// pingpong_info_t).
const (
	ppStream = 0  // bool: streaming reply in flight
	ppSource = 8  // source rank for the pong
	ppLength = 16 // message length (store mode)
	ppOffset = 24 // ME offset of the deposited message (store mode)
	// PingPongStateBytes is the HPU memory a ping-pong ME needs.
	PingPongStateBytes = 32
)

// PingPongConfig parameterizes the Appendix C.3.1 handlers.
type PingPongConfig struct {
	// ReplyPT and ReplyBits address the initiator's ME for the pong.
	ReplyPT   int
	ReplyBits uint64
	// Streaming selects the streaming variant: every packet is answered
	// with a put-from-device, so large messages never touch host memory.
	Streaming bool
	// MaxSize is PTL_MAX_SIZE: single-packet messages are answered from
	// the device even in store mode.
	MaxSize int
}

// PingPong builds the ping-pong handler set (Appendix C.3.1):
//   - store (<= 1 packet): pong is a put-from-device,
//   - store (> 1 packet): message deposits normally; the completion
//     handler issues a put-from-host,
//   - stream (> 1 packet): each payload handler answers its packet with a
//     put-from-device, splitting the reply into single-packet messages.
func PingPong(cfg PingPongConfig) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			if h.Length > cfg.MaxSize || !cfg.Streaming {
				c.SetU64(ppStream, 0)
				c.SetU64(ppLength, uint64(h.Length))
				c.SetU64(ppSource, uint64(h.Source))
				c.SetU64(ppOffset, uint64(h.Offset))
				return core.Proceed // no other handlers until completion
			}
			c.SetU64(ppSource, uint64(h.Source))
			c.SetU64(ppStream, 1)
			return core.ProcessData // payload handler puts from device
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			src := int(c.U64(ppSource))
			if err := c.PutFromDevice(p.Data, p.Size, src, cfg.ReplyPT, cfg.ReplyBits, int64(p.Offset), 0); err != nil {
				return core.PayloadFail
			}
			return core.PayloadSuccess
		},
		Completion: func(c *core.Ctx, dropped int, fc bool) core.CompletionRC {
			if c.U64(ppStream) == 0 {
				src := int(c.U64(ppSource))
				length := int(c.U64(ppLength))
				off := int64(c.U64(ppOffset))
				if err := c.PutFromHost(core.MEHostMem, off, length, src, cfg.ReplyPT, cfg.ReplyBits, 0, 0); err != nil {
					return core.CompletionFail
				}
			}
			return core.CompletionSuccess
		},
	}
}
