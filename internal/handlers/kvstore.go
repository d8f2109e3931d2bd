package handlers

import (
	"encoding/binary"

	"repro/internal/core"
)

// KV store layout (§5.4 "Distributed Key-Value Stores").
//
// The index lives in the ME's HandlerHostMem:
//
//	[0,8)             allocation cursor (heap offset of the next entry)
//	[8, 8+buckets*8)  bucket heads: heap offset of the chain head, 0 = empty
//
// The heap (entry storage) is the ME's host memory:
//
//	entry := [next u64][length u64][key+value bytes...]
//
// Heap offset 0 is reserved as the nil chain terminator, so the allocation
// cursor starts at KVHeapBase.
const (
	// KVHeapBase is the first usable heap offset (0 is the nil sentinel).
	KVHeapBase = 64
	// kvEntryHdr is the per-entry header size (next + length).
	kvEntryHdr = 16
	// KVMaxChainSteps bounds the header handler's chain walk; beyond it
	// the insert is deferred to the host CPU so the NIC is never backed
	// up (§5.4).
	KVMaxChainSteps = 8
)

// KVUserHdr is the user-defined header of an insert message: H2(k) and the
// key length, pre-computed by the client (§5.4).
type KVUserHdr struct {
	Bucket uint32
	KeyLen uint32
}

// EncodeKVUserHdr serializes the user header for the wire.
func EncodeKVUserHdr(h KVUserHdr) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, h.Bucket)
	binary.LittleEndian.PutUint32(b[4:], h.KeyLen)
	return b
}

// KVStats counts handler outcomes in HPU shared memory.
const (
	kvStatInserts  = 0 // completed NIC-side inserts
	kvStatDeferred = 8 // inserts handed to the host CPU
	// KVStateBytes is the HPU memory a KV ME needs.
	KVStateBytes = 16
)

// KVInsertDeferred reads the deferred-insert counter from HPU state.
func KVInsertDeferred(state []byte) uint64 {
	return binary.LittleEndian.Uint64(state[kvStatDeferred:])
}

// KVInserts reads the completed-insert counter from HPU state.
func KVInserts(state []byte) uint64 {
	return binary.LittleEndian.Uint64(state[kvStatInserts:])
}

// KVInsert builds the §5.4 insert handler: the header handler allocates an
// entry with an atomic fetch-add on the allocation cursor, links it at the
// head of bucket H2(k) with a bounded compare-and-swap walk, steers the
// message payload (key+value) into the allocated entry, and lets the
// default action deposit it — the host CPU never touches the fast path.
func KVInsert(buckets int) core.HandlerSet {
	return core.HandlerSet{
		Header: func(c *core.Ctx, h core.Header) core.HeaderRC {
			if len(h.UserHdr) < 8 {
				return core.HeaderFail
			}
			c.Charge(4) // parse user header
			bucket := binary.LittleEndian.Uint32(h.UserHdr)
			if int(bucket) >= buckets {
				return core.HeaderFail
			}
			entrySize := uint64(kvEntryHdr + h.Length)
			heapOff := c.DMAFetchAdd(0, entrySize, core.HandlerHostMem)
			if heapOff == 0 {
				// First insert ever: cursor was uninitialized; the host
				// must set it to KVHeapBase at setup. Treat as deferred.
				c.FAdd(kvStatDeferred, 1)
				return core.Drop
			}
			bucketOff := int64(8 + bucket*8)
			// Bounded lock-free chain push: new.next = head;
			// CAS(head, new).
			var hdr [16]byte
			linked := false
			for step := 0; step < KVMaxChainSteps; step++ {
				c.Charge(2)
				head := c.DMAFetchAdd(bucketOff, 0, core.HandlerHostMem) // atomic read
				binary.LittleEndian.PutUint64(hdr[:], head)
				binary.LittleEndian.PutUint64(hdr[8:], uint64(h.Length))
				c.DMAToHostB(hdr[:], len(hdr), int64(heapOff), core.MEHostMem)
				if _, swapped := c.DMACAS(bucketOff, head, heapOff, core.HandlerHostMem); swapped {
					linked = true
					break
				}
			}
			if !linked {
				// Contended past the step bound: deposit a work item for
				// the host instead of backing up the network.
				c.FAdd(kvStatDeferred, 1)
				return core.Drop
			}
			c.FAdd(kvStatInserts, 1)
			// Steer the key+value payload just after the entry header.
			c.SteerTo(int64(heapOff) + kvEntryHdr)
			return core.Proceed
		},
	}
}

// KVInitIndex prepares the index region (allocation cursor) at setup time;
// the host does this once before appending the ME.
func KVInitIndex(index []byte) {
	binary.LittleEndian.PutUint64(index, KVHeapBase)
}

// KVLookup walks the table on the host side (used by tests and by the
// host-CPU fallback path): it returns the most recent value stored for key,
// or nil.
func KVLookup(index, heap []byte, buckets int, bucket uint32, key []byte) []byte {
	if int(bucket) >= buckets {
		return nil
	}
	off := binary.LittleEndian.Uint64(index[8+bucket*8:])
	for off != 0 {
		next := binary.LittleEndian.Uint64(heap[off:])
		length := binary.LittleEndian.Uint64(heap[off+8:])
		payload := heap[off+kvEntryHdr : off+kvEntryHdr+length]
		if len(payload) >= len(key) && string(payload[:len(key)]) == string(key) {
			return payload[len(key):]
		}
		off = next
	}
	return nil
}
