package handlers

import (
	"encoding/binary"

	"repro/internal/core"
)

// Conditional read (§5.4 "Conditional Read"): a request-reply protocol in
// which the reply contains only the table rows matching a filter — instead
// of shipping the whole table over RDMA. The request's user header carries
// the predicate; the header handler scans the table region in host memory
// and returns matching records from the device.

// FilterRequest is the request user header: scan [Offset, Offset+Length)
// of the table ME for records whose u64 at KeyOffset equals Key.
type FilterRequest struct {
	Key        uint64
	RecordSize uint32
	KeyOffset  uint32
	Offset     uint64
	Length     uint64
}

// EncodeFilterRequest serializes a request header for the wire.
func EncodeFilterRequest(r FilterRequest) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b, r.Key)
	binary.LittleEndian.PutUint32(b[8:], r.RecordSize)
	binary.LittleEndian.PutUint32(b[12:], r.KeyOffset)
	binary.LittleEndian.PutUint64(b[16:], r.Offset)
	binary.LittleEndian.PutUint64(b[24:], r.Length)
	return b
}

// decodeFilterRequest parses the request header.
func decodeFilterRequest(b []byte) (FilterRequest, bool) {
	if len(b) < 32 {
		return FilterRequest{}, false
	}
	return FilterRequest{
		Key:        binary.LittleEndian.Uint64(b),
		RecordSize: binary.LittleEndian.Uint32(b[8:]),
		KeyOffset:  binary.LittleEndian.Uint32(b[12:]),
		Offset:     binary.LittleEndian.Uint64(b[16:]),
		Length:     binary.LittleEndian.Uint64(b[24:]),
	}, true
}

// filterChunk is how much table data the handler stages per DMA read.
const filterChunk = 4096

// Filter builds the conditional-read handler: it streams the table region
// through HPU memory in MTU-sized chunks, scans for matching records, and
// replies with only the matches — saving the network from a full table
// shipment. The reply goes to (replyPT, request match bits) at the source.
func Filter(replyPT int) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			req, ok := decodeFilterRequest(h.UserHdr)
			if !ok || req.RecordSize == 0 {
				return core.HeaderFail
			}
			buf := make([]byte, filterChunk)
			var matches []byte
			rec := int(req.RecordSize)
			remaining := int(req.Length)
			off := int64(req.Offset)
			for remaining > 0 {
				n := remaining
				if n > filterChunk {
					n = filterChunk
				}
				n -= n % rec // only whole records per chunk
				if n == 0 {
					break
				}
				c.DMAFromHostB(off, buf[:n], core.MEHostMem)
				c.ChargePerByteMilli(n, core.MilliCyclesPerByteScan)
				for i := 0; i+rec <= n; i += rec {
					k := binary.LittleEndian.Uint64(buf[i+int(req.KeyOffset):])
					if k == req.Key {
						matches = append(matches, buf[i:i+rec]...)
					}
				}
				off += int64(n)
				remaining -= n
				// Flush matches that no longer fit in one packet.
				for len(matches) >= c.MTU() {
					if err := c.PutFromDevice(matches[:c.MTU()], c.MTU(), h.Source, replyPT, h.MatchBits, 0, 0); err != nil {
						return core.HeaderFail
					}
					matches = matches[c.MTU():]
				}
			}
			// Final reply: remaining matches (possibly empty) with the
			// total match count in hdr_data.
			if err := c.PutFromDevice(matches, len(matches), h.Source, replyPT, h.MatchBits, 0, uint64(len(matches))); err != nil {
				return core.HeaderFail
			}
			if c.Err() != nil {
				return core.HeaderSegv
			}
			return core.Drop // the request itself is not deposited
		},
	}
}
