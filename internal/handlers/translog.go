package handlers

import (
	"encoding/binary"

	"repro/internal/core"
)

// Distributed transactions (§5.4 "Distributed Transactions"): the header
// handler introspects every incoming RDMA put and appends an access record
// to a log in handler host memory; commit-time validation then runs on the
// host by scanning the log. The data path itself is untouched (Proceed).

// TransLogRecordBytes is the size of one access record:
// (source, offset, length, arrival time in ns).
const TransLogRecordBytes = 32

// TransLogCursor is the offset of the log cursor in HandlerHostMem; records
// start right after it.
const TransLogCursor = 0

// TransLogRecord is one decoded access-log entry.
type TransLogRecord struct {
	Source  uint64
	Offset  uint64
	Length  uint64
	AtNanos uint64
}

// DecodeTransLog parses the access log from the handler host region.
func DecodeTransLog(logMem []byte) []TransLogRecord {
	end := binary.LittleEndian.Uint64(logMem[TransLogCursor:])
	var recs []TransLogRecord
	for off := uint64(8); off+TransLogRecordBytes <= end; off += TransLogRecordBytes {
		recs = append(recs, TransLogRecord{
			Source:  binary.LittleEndian.Uint64(logMem[off:]),
			Offset:  binary.LittleEndian.Uint64(logMem[off+8:]),
			Length:  binary.LittleEndian.Uint64(logMem[off+16:]),
			AtNanos: binary.LittleEndian.Uint64(logMem[off+24:]),
		})
	}
	return recs
}

// TransLogInit prepares the log region (cursor points past itself).
func TransLogInit(logMem []byte) {
	binary.LittleEndian.PutUint64(logMem[TransLogCursor:], 8)
}

// TransLog builds the introspection header handler: it allocates a log slot
// with an atomic fetch-add and records the access, then lets the put
// proceed normally. Runs at line rate: one atomic and one small DMA write
// per message.
func TransLog() core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			slot := c.DMAFetchAdd(TransLogCursor, TransLogRecordBytes, core.HandlerHostMem)
			var rec [TransLogRecordBytes]byte
			binary.LittleEndian.PutUint64(rec[:], uint64(h.Source))
			binary.LittleEndian.PutUint64(rec[8:], uint64(h.Offset))
			binary.LittleEndian.PutUint64(rec[16:], uint64(h.Length))
			binary.LittleEndian.PutUint64(rec[24:], uint64(c.Now()/1000)) // ps -> ns
			c.DMAToHostB(rec[:], len(rec), int64(slot), core.HandlerHostMem)
			if c.Err() != nil {
				return core.HeaderSegv
			}
			return core.Proceed
		},
	}
}
