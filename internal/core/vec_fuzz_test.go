package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// vecCase is one DMAToHostVec call decoded from the oracle's input, with
// the region it targets and a nonblocking write of pre bytes at offset 0
// issued before it, so the scatter starts on a busy bus.
type vecCase struct {
	regionLen  int
	timingOnly bool
	handlerMem bool // target HandlerHostMem rather than MEHostMem
	nilLocal   bool // a timing-only scatter of n bytes
	v          datatype.Vector
	streamOff  int
	n          int
	base       int64
	perSeg     int64
	pre        int
}

// vecResult is what the oracle compares: the handler clock, cycles and
// first action error after the call, the bus counters it moved, the
// message's completion time, and the region's bytes after the run.
type vecResult struct {
	now       sim.Time
	cycles    int64
	err       string
	tx, moved uint64
	end       sim.Time
	host      []byte
}

// refSegments expands the stream range [off, off+n) of v, clamped to the
// vector's size, into host segments one block at a time.
func refSegments(v datatype.Vector, off, n int) []datatype.Segment {
	var segs []datatype.Segment
	end := min(off+n, v.Blocksize*v.Count)
	for p := off; p < end; {
		in := p % v.Blocksize
		ln := min(v.Blocksize-in, end-p)
		segs = append(segs, datatype.Segment{Offset: int64(p/v.Blocksize*v.Stride + in), Length: ln})
		p += ln
	}
	return segs
}

// runVec runs vc's call from a header handler on a fresh rig, as one
// vectorized DMAToHostVec or, when loop is set, as the reference loop of
// Charge(perSeg) and DMAToHostB per block, each block's DMAToHostB
// without data (a nil buffer) when the chain has none. It returns the observation and
// the bus transaction count just before the call.
func runVec(t *testing.T, vc vecCase, loop bool) (vecResult, uint64) {
	t.Helper()
	region := TimingRegion(vc.regionLen)
	var host []byte
	if !vc.timingOnly {
		host = make([]byte, vc.regionLen)
		region = BytesRegion(host)
	}
	space := MEHostMem
	me := &MEContext{HostMem: region}
	if vc.handlerMem {
		space = HandlerHostMem
		me = &MEContext{HandlerHostMem: region}
	}
	local := make([]byte, max(vc.n, vc.pre))
	if !vc.nilLocal {
		for i := range local {
			local[i] = byte(i*5 + 3)
		}
	}
	var res vecResult
	var before uint64
	me.Owner = completeFunc(func(now sim.Time, r MessageResult) { res.end = r.End })
	me.Handlers.Header = func(c *Ctx, h Header) HeaderRC {
		if vc.pre <= vc.regionLen {
			c.DMAToHostNB(local[:vc.pre], vc.pre, 0, space)
		}
		before = c.rt.Node.Bus.Transactions
		if !loop {
			var src []byte
			if !vc.nilLocal {
				src = local[:vc.n]
			}
			c.DMAToHostVec(src, vc.v, vc.streamOff, vc.n, vc.base, space, vc.perSeg)
		} else {
			pos := 0
			for _, s := range refSegments(vc.v, vc.streamOff, vc.n) {
				var blk []byte // a timing-only chain writes without data
				if !vc.nilLocal {
					blk = local[pos : pos+s.Length]
				}
				c.Charge(vc.perSeg)
				c.DMAToHostB(blk, s.Length, vc.base+s.Offset, space)
				pos += s.Length
			}
		}
		res.now, res.cycles, res.err = c.Now(), c.Cycles(), errString(c.Err())
		return Drop
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	res.tx, res.moved, res.host = h.rt.Node.Bus.Transactions, h.rt.Node.Bus.BytesMoved, host
	return res, before
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// vecInput reads the fuzz input; past its end every read is zero.
type vecInput []byte

func (in *vecInput) u8() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

func (in *vecInput) u16() int { return in.u8()<<8 | in.u8() }

// decodeVecCase reads a flags byte (bit 0 a timing-only region, bit 1 a
// nil local buffer, bit 2 the handler host region), a u16 region length
// (mod 4096), the vector's block size (1 + u8 mod 64), stride gap (u8 mod
// 64) and count (1 + u8 mod 64), a u16 stream offset (mod the vector's
// size + 16), a u16 length (mod 4096), a signed i16 base, the per-segment
// cycles (u8 mod 8) and the pre-write length (u8 mod 128). The bounds keep
// a call to at most 64 bus transactions.
func decodeVecCase(program []byte) vecCase {
	in := vecInput(program)
	flags := in.u8()
	vc := vecCase{timingOnly: flags&1 != 0, nilLocal: flags&2 != 0, handlerMem: flags&4 != 0}
	vc.regionLen = in.u16() % 4096
	vc.v.Blocksize = 1 + in.u8()%64
	vc.v.Stride = vc.v.Blocksize + in.u8()%64
	vc.v.Count = 1 + in.u8()%64
	vc.streamOff = in.u16() % (vc.v.Size() + 16)
	vc.n = in.u16() % 4096
	vc.base = int64(int16(in.u16()))
	vc.perSeg = int64(in.u8() % 8)
	vc.pre = in.u8() % 128
	return vc
}

// FuzzDMAToHostVecMatchesLoop is the differential oracle for the
// vectorized scatter: DMAToHostVec against the per-block loop of
// Charge(perSegCycles) and DMAToHostB it replaces, on rigs that differ only
// in which of the two the header handler runs. When every block lies inside
// the target region, both must leave the same handler clock, cycles and
// action error, the same bus Transactions and BytesMoved, the same
// completion time and the same region bytes. When a block lies outside,
// the vector form must issue nothing (the clock, the bus and the region
// untouched) and record an outside-host-region action error. The seed
// corpus lives in testdata/fuzz/FuzzDMAToHostVecMatchesLoop.
func FuzzDMAToHostVecMatchesLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		vc := decodeVecCase(program)
		inside := true
		for _, s := range refSegments(vc.v, vc.streamOff, vc.n) {
			if o := vc.base + s.Offset; o < 0 || o+int64(s.Length) > int64(vc.regionLen) {
				inside = false
			}
		}
		got, before := runVec(t, vc, false)
		if inside {
			want, _ := runVec(t, vc, true)
			if got.now != want.now || got.cycles != want.cycles || got.err != want.err ||
				got.tx != want.tx || got.moved != want.moved || got.end != want.end {
				t.Fatalf("%+v: vector form %+v, loop %+v", vc, got, want)
			}
			if !bytes.Equal(got.host, want.host) {
				t.Fatalf("%+v: vector form left %v, loop %v", vc, got.host, want.host)
			}
			return
		}
		// The call is the last bus use before the Drop, so the transactions
		// counted after the run are the pre-write's and the call's.
		idle, _ := runVec(t, vecCase{regionLen: vc.regionLen, timingOnly: vc.timingOnly, handlerMem: vc.handlerMem, nilLocal: vc.nilLocal, pre: vc.pre}, false)
		if got.tx != before || got.now != idle.now || got.cycles != idle.cycles || !bytes.Equal(got.host, idle.host) {
			t.Fatalf("%+v: an out-of-range vector scatter issued work: %+v, %d transactions before the call, idle %+v", vc, got, before, idle)
		}
		if !strings.Contains(got.err, "DMAToHostVec") || !strings.Contains(got.err, "outside host region") {
			t.Fatalf("%+v: out-of-range vector scatter recorded %q", vc, got.err)
		}
	})
}
