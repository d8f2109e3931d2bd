package handlers

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// Accumulate handler state (Appendix C.3.2's accumulate_info_t).
const (
	accPong   = 0 // bool: send result back to the source
	accSource = 8
	accOffset = 16 // base offset of the destination array in the ME
	// AccumulateStateBytes is the HPU memory an accumulate ME needs.
	AccumulateStateBytes = 24
)

// AccumulateConfig parameterizes the Appendix C.3.2 handlers.
type AccumulateConfig struct {
	// Pong, when true, returns each accumulated packet to the source
	// (the microbenchmark's round-trip mode).
	Pong      bool
	ReplyPT   int
	ReplyBits uint64
	// Offset is the destination array's base offset in the ME.
	Offset int64
}

// Accumulate builds the Appendix C.3.2 handler set: every payload handler
// fetches the destination slice via DMA, multiplies the incoming array of
// double-complex values into it, and writes it back — an operation no
// RDMA/Portals NIC supports natively (§4.4.2). Packets are processed by
// different HPUs in parallel, pipelining the DMA round trips.
func Accumulate(cfg AccumulateConfig) core.HandlerSet {
	pongFlag := uint64(0)
	if cfg.Pong {
		pongFlag = 1
	}
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			c.SetU64(accPong, pongFlag)
			if pongFlag != 0 {
				c.SetU64(accSource, uint64(h.Source))
			}
			c.SetU64(accOffset, uint64(cfg.Offset))
			return core.ProcessData
		},
		Payload: func(c *core.Ctx, p core.Payload) core.PayloadRC {
			base := int64(c.U64(accOffset))
			buf := c.Scratch(p.Size)
			c.DMAFromHostB(base+int64(p.Offset), buf, core.MEHostMem)
			var product []byte // the pong carries data only if the packet did
			if p.Data != nil {
				complexMulInto(buf, p.Data)
				product = buf
			}
			// NEON double-complex multiply stream (see costs.go).
			c.ChargePerByteMilli(p.Size, core.MilliCyclesPerByteCplxMul)
			c.DMAToHostB(buf, p.Size, base+int64(p.Offset), core.MEHostMem)
			if c.U64(accPong) != 0 {
				src := int(c.U64(accSource))
				if err := c.PutFromDevice(product, p.Size, src, cfg.ReplyPT, cfg.ReplyBits, int64(p.Offset), 0); err != nil {
					return core.PayloadFail
				}
			}
			if c.Err() != nil {
				return core.PayloadSegv
			}
			return core.PayloadSuccess
		},
	}
}

// complexMulInto computes dst[k] = src[k] * dst[k] over packed complex128
// values (16 bytes each: real, imag as little-endian float64).
func complexMulInto(dst, src []byte) {
	n := len(dst) &^ 15
	for i := 0; i < n; i += 16 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i+8:]))
		cr := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		ci := math.Float64frombits(binary.LittleEndian.Uint64(dst[i+8:]))
		re := a*cr - b*ci
		im := a*ci + b*cr
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(re))
		binary.LittleEndian.PutUint64(dst[i+8:], math.Float64bits(im))
	}
}

// HostAccumulate is the CPU-side reference used by the RDMA baseline and by
// tests: dst[k] = src[k] * dst[k] over complex128 arrays.
func HostAccumulate(dst, src []byte) { complexMulInto(dst, src) }
