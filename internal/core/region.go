package core

import (
	"encoding/binary"
	"fmt"
)

// Region is a host-memory region: either bytes, or a timing-only length
// that holds none. It owns the one bounds rule of host memory (Appendix
// B.6, and Portals 4 truncation at an entry's end):
//
//   - a deposit or a get of [off, off+n) lands on its intersection with
//     the region (Clip, Land);
//   - a handler action must lie wholly inside the region (Check).
//
// A timing-only region is bounded exactly like bytes of its length but
// moves nothing: reads yield zeros, writes and atomics store nothing, and
// Bytes and Land return nil. The zero Region is a zero-length region.
type Region struct {
	buf []byte
	n   int64
}

// BytesRegion returns the region of b.
func BytesRegion(b []byte) Region { return Region{buf: b, n: int64(len(b))} }

// TimingRegion returns a timing-only region of n bytes.
func TimingRegion(n int) Region { return Region{n: int64(n)} }

// Check returns the action error of op on [off, off+n), or nil when that
// range lies wholly inside the region.
func (r Region) Check(op string, off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > r.n {
		return fmt.Errorf("core: %s [%d,%d) outside host region of %d bytes", op, off, off+int64(n), r.n)
	}
	return nil
}

// Clip returns the intersection of [off, off+n) with the region as a start
// and a length. An empty intersection has length 0 and starts at off, or
// at 0 when off is negative.
func (r Region) Clip(off int64, n int) (int64, int) {
	lo, hi := max(off, 0), min(off+int64(n), r.n)
	if hi <= lo {
		return lo, 0
	}
	return lo, int(hi - lo)
}

// Land returns where a deposit of src at off lands: the region's bytes on
// the intersection and the part of src that falls on them, both nil when
// the intersection is empty or the region is timing-only.
func (r Region) Land(off int64, src []byte) (dst, part []byte) {
	lo, n := r.Clip(off, len(src))
	if r.buf == nil || n == 0 {
		return nil, nil
	}
	return r.buf[lo : lo+int64(n)], src[lo-off : lo-off+int64(n)]
}

// Bytes returns the region's bytes on [off, off+n), which must lie inside
// it, or nil for a timing-only region, so a copy into them stores nothing.
func (r Region) Bytes(off int64, n int) []byte {
	if r.buf == nil {
		return nil
	}
	return r.buf[off : off+int64(n)]
}

// Read copies the region's bytes at off into dst; a timing-only region
// reads as zeros.
func (r Region) Read(off int64, dst []byte) {
	if r.buf == nil {
		clear(dst)
		return
	}
	copy(dst, r.buf[off:])
}

// Uint64 loads the little-endian word at off; a timing-only region's
// words read zero.
func (r Region) Uint64(off int64) uint64 {
	if r.buf == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[off:])
}

// PutUint64 stores v as the little-endian word at off; a timing-only
// region stores nothing.
func (r Region) PutUint64(off int64, v uint64) {
	if r.buf != nil {
		binary.LittleEndian.PutUint64(r.buf[off:], v)
	}
}

// AtomicOp enumerates the Portals atomic operations the default action
// applies to a region.
type AtomicOp uint8

const (
	// AtomicSum adds 64-bit little-endian integers elementwise.
	AtomicSum AtomicOp = iota + 1
	// AtomicBXOR xors bytes elementwise.
	AtomicBXOR
	// AtomicSwap replaces target bytes and returns nothing (put-like).
	AtomicSwap
)

// applyAtomic applies op elementwise to dst, reading the operands from
// src (as long as dst).
func applyAtomic(op AtomicOp, dst, src []byte) {
	switch op {
	case AtomicSum:
		n := len(dst) &^ 7
		for i := 0; i < n; i += 8 {
			v := binary.LittleEndian.Uint64(dst[i:]) + binary.LittleEndian.Uint64(src[i:])
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	case AtomicBXOR:
		for i := range dst {
			dst[i] ^= src[i]
		}
	default: // AtomicSwap and unknown ops behave like a plain put
		copy(dst, src)
	}
}
