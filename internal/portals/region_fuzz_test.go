package portals

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Portal indices of the region oracle's three entries.
const (
	rigPlainPT   = 0 // plain entry: deposits, atomics, gets
	rigLocalPT   = 1 // plain entry with locally managed offsets
	rigHandlerPT = 2 // handler entry whose payload handler runs the script
)

// rigAction is one call of the handler script, decoded from the fuzz
// input: kind selects the Ctx call, off is its host offset and n its
// length; for a DMAToHostVec, block is the vector's block size. nilLocal
// makes a DMAToHostB, DMAToHostNB or DMAToHostVec a write without data (a
// nil buffer), turns a PutFromHost into a PutFromDevice of the packet as
// it came (its Data and Size) to remote offset off, and picks DMACAS over
// DMAFetchAdd for an atomic.
type rigAction struct {
	kind     byte
	off      int64
	n        int
	nilLocal bool
	block    int
}

// rigRecord is one observation compared across the two rigs: an event
// (what "eq" for the entries' queue, "md" for the initiator's) or a
// handler action with the handler clock and first action error after it.
type rigRecord struct {
	what   string
	typ    EventType
	at     sim.Time
	length int
	offset int64
	err    string
}

// regionRig is one single-NI rig: a one-node cluster whose NI sends to
// itself, with three entries whose host regions all have one length. The
// rig is timing-only when its entries set Length; otherwise each entry
// owns n bytes of Start.
type regionRig struct {
	t          *testing.T
	c          *netsim.Cluster
	ni         *NI
	n          int
	timingOnly bool
	md         *MD
	eq, mdEQ   *EQ
	script     []rigAction
	recs       []rigRecord
	seen, mdAt int
	pattern    []byte // non-zero bytes for writes and data puts
	readBuf    []byte // read target, poisoned before every read
}

// rigBufBytes bounds every length the oracle decodes (a u16).
const rigBufBytes = 1 << 16

func newRegionRig(t *testing.T, n int, timingOnly bool) *regionRig {
	t.Helper()
	c, err := netsim.NewCluster(1, netsim.Integrated())
	if err != nil {
		t.Fatal(err)
	}
	r := &regionRig{t: t, c: c, ni: NewNI(c, 0), n: n, timingOnly: timingOnly}
	r.pattern = make([]byte, rigBufBytes)
	for i := range r.pattern {
		r.pattern[i] = byte(i*7 + 1)
	}
	r.readBuf = make([]byte, rigBufBytes)
	r.eq = NewEQ(c.Eng)
	r.mdEQ = NewEQ(c.Eng)
	r.md = r.ni.MDBind(make([]byte, rigBufBytes), nil, r.mdEQ)
	copy(r.md.Buf, r.pattern)
	for pt, me := range []*ME{
		rigPlainPT:   {IgnoreBits: ^uint64(0), EQ: r.eq},
		rigLocalPT:   {IgnoreBits: ^uint64(0), EQ: r.eq, ManageLocal: true},
		rigHandlerPT: {IgnoreBits: ^uint64(0), EQ: r.eq, Handlers: core.HandlerSet{Payload: r.payload}},
	} {
		if timingOnly {
			me.Length = n
		} else {
			me.Start = make([]byte, n)
		}
		if _, err := r.ni.PTAlloc(pt, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.ni.MEAppend(pt, me, PriorityList); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// payload runs the current script on every packet of a message to the
// handler entry, recording the handler clock and first action error after
// each call. In the timing-only rig a read must zero its local buffer, or
// leave it untouched when the call is out of range, and an atomic must
// find zero.
func (r *regionRig) payload(c *core.Ctx, p core.Payload) core.PayloadRC {
	for _, a := range r.script {
		name := ""
		var src []byte // a write's buffer, nil for one without data
		if !a.nilLocal {
			src = r.pattern[:a.n]
		}
		switch a.kind {
		case 0:
			name = "DMAToHostB"
			c.DMAToHostB(src, a.n, a.off, core.MEHostMem)
		case 1:
			name = "DMAToHostNB"
			h := c.DMAToHostNB(src, a.n, a.off, core.MEHostMem)
			c.DMAWait(&h)
		case 2:
			name = "DMAToHostVec"
			v := datatype.Vector{Blocksize: a.block, Stride: 2 * a.block, Count: (a.n + a.block - 1) / a.block}
			c.DMAToHostVec(src, v, 0, a.n, a.off, core.MEHostMem, 1)
		case 3, 4:
			local := r.readBuf[:a.n]
			for i := range local {
				local[i] = 0xa5
			}
			if a.kind == 3 {
				name = "DMAFromHostB"
				c.DMAFromHostB(a.off, local, core.MEHostMem)
			} else {
				name = "DMAFromHostNB"
				h := c.DMAFromHostNB(a.off, local, core.MEHostMem)
				c.DMAWait(&h)
			}
			if r.timingOnly {
				want := byte(0xa5)
				if a.off >= 0 && a.off+int64(a.n) <= int64(r.n) {
					want = 0
				}
				for i, b := range local {
					if b != want {
						r.t.Errorf("%s [%d,%d) of a %d-byte timing-only region: local byte %d is %#x, want %#x",
							name, a.off, a.off+int64(a.n), r.n, i, b, want)
						break
					}
				}
			}
		case 5:
			// Either error is c.Err, recorded below.
			if a.nilLocal {
				name = "PutFromDevice"
				_ = c.PutFromDevice(p.Data, p.Size, 0, rigPlainPT, 0, a.off, 0)
			} else {
				name = "PutFromHost"
				_ = c.PutFromHost(core.MEHostMem, a.off, a.n, 0, rigPlainPT, 0, 0, 0)
			}
		case 6:
			var prev uint64
			if a.nilLocal {
				name = "DMACAS"
				prev, _ = c.DMACAS(a.off, 0, uint64(a.n)+1, core.MEHostMem)
			} else {
				name = "DMAFetchAdd"
				prev = c.DMAFetchAdd(a.off, uint64(a.n)+1, core.MEHostMem)
			}
			if r.timingOnly && prev != 0 {
				r.t.Errorf("%s at %d of a %d-byte timing-only region read %#x, want 0", name, a.off, r.n, prev)
			}
		default:
			name = "Get"
			_ = c.Get(core.GetRequest{PTIndex: rigPlainPT, LocalOffset: a.off, Length: a.n})
		}
		r.recs = append(r.recs, rigRecord{what: name, at: c.Now(), length: a.n, offset: a.off, err: errString(c.Err())})
	}
	return core.PayloadSuccess
}

// mdIf returns the rig's MD when bit 0 of flags asks for a put with data,
// and nil, a put without data, otherwise.
func (r *regionRig) mdIf(flags byte) *MD {
	if flags&1 == 0 {
		return nil
	}
	return r.md
}

// run issues one operation at the engine's current time, runs the engine
// dry and records the events it raised.
func (r *regionRig) run(op func(now sim.Time) error) {
	if err := op(r.c.Eng.Now()); err != nil {
		r.recs = append(r.recs, rigRecord{what: "op", err: err.Error()})
	}
	r.c.Eng.Run()
	for _, ev := range r.eq.Events()[r.seen:] {
		r.recs = append(r.recs, rigRecord{"eq", ev.Type, ev.At, ev.Length, ev.Offset, errString(ev.Err)})
	}
	r.seen = len(r.eq.Events())
	for _, ev := range r.mdEQ.Events()[r.mdAt:] {
		r.recs = append(r.recs, rigRecord{"md", ev.Type, ev.At, ev.Length, ev.Offset, errString(ev.Err)})
	}
	r.mdAt = len(r.mdEQ.Events())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// oracleInput reads the fuzz input; past its end every read is zero.
type oracleInput []byte

func (in *oracleInput) u8() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *oracleInput) u16() int { return int(in.u8())<<8 | int(in.u8()) }

func (in *oracleInput) i16() int64 { return int64(int16(in.u16())) }

// runRegionProgram decodes program and runs it on one rig. The program is
// a big-endian u16 region length n (1 + v mod 16384), then up to 32
// operations, each an opcode byte (mod 4) and its operands:
//
//	0 put to the plain entry: signed i16 remote offset, u16 length, flags
//	  (bit 0 sends data from an MD, bit 1 makes it an AtomicSum)
//	1 put to the locally managed entry: u16 length, flags (bit 0 data)
//	2 get from the plain entry: signed i16 remote offset, u16 length
//	3 put to the handler entry: u16 length (mod 16384), flags (bit 0
//	  data), then a script of (count mod 5) actions, each an action byte
//	  (bits 0-2 pick DMAToHostB, DMAToHostNB, DMAToHostVec, DMAFromHostB,
//	  DMAFromHostNB, PutFromHost, an atomic or a handler Get; bit 3 makes
//	  a DMAToHostB, DMAToHostNB or DMAToHostVec write without data, a
//	  PutFromHost a PutFromDevice of the packet's own Data and Size to
//	  the plain entry at the host offset, and an atomic a DMACAS rather
//	  than a DMAFetchAdd; bits 4-6 set the vector's block size, 8 << k),
//	  a signed i16 host offset and a u16 length (mod 8192)
//
// The bounds on handler messages and action lengths keep a script's DMA
// reservations in the thousands, so an execution stays fast.
func runRegionProgram(t *testing.T, program []byte, timingOnly bool) []rigRecord {
	in := oracleInput(program)
	n := 1 + in.u16()%16384
	r := newRegionRig(t, n, timingOnly)
	for i := 0; i < 32 && len(in) > 0; i++ {
		switch in.u8() % 4 {
		case 0:
			off, length, flags := in.i16(), in.u16(), in.u8()
			a := PutArgs{MD: r.mdIf(flags), Length: length, PTIndex: rigPlainPT, RemoteOffset: off}
			if flags&2 != 0 {
				r.run(func(now sim.Time) error { _, err := r.ni.Atomic(now, a, AtomicSum); return err })
			} else {
				r.run(func(now sim.Time) error { _, err := r.ni.Put(now, a); return err })
			}
		case 1:
			length, flags := in.u16(), in.u8()
			a := PutArgs{MD: r.mdIf(flags), Length: length, PTIndex: rigLocalPT}
			r.run(func(now sim.Time) error { _, err := r.ni.Put(now, a); return err })
		case 2:
			off, length := in.i16(), in.u16()
			a := GetArgs{MD: r.md, Length: length, PTIndex: rigPlainPT, RemoteOffset: off}
			r.run(func(now sim.Time) error { _, err := r.ni.Get(now, a); return err })
		default:
			length, flags := in.u16()%16384, in.u8()
			r.script = r.script[:0]
			for k := int(in.u8() % 5); k > 0; k-- {
				b := in.u8()
				r.script = append(r.script, rigAction{
					kind: b & 7, nilLocal: b&8 != 0, block: 8 << (b >> 4 & 7),
					off: in.i16(), n: in.u16() % 8192,
				})
			}
			a := PutArgs{MD: r.mdIf(flags), Length: length, PTIndex: rigHandlerPT}
			r.run(func(now sim.Time) error { _, err := r.ni.Put(now, a); return err })
		}
	}
	return r.recs
}

// FuzzTimingOnlyRegionMatchesBytes is the differential oracle for
// timing-only host regions: two single-NI rigs that differ only in their
// entries, one setting Length: n and the other Start: make([]byte, n),
// run the same program of puts with and without data (in range,
// straddling either end of the region, outside it, atomic, and under
// ManageLocal), gets (truncated or not, at negative offsets too), and
// payload-handler DMAToHostB/NB/Vec (with and without data),
// DMAFromHostB/NB, DMACAS, DMAFetchAdd, PutFromHost, PutFromDevice and Get
// calls, at any local offset. Both must post the same
// events (type, time, length, offset) and the same action errors at the
// same handler times, and every read from the timing-only region, an
// atomic's old value included, must yield zeros.
// The seed corpus lives in testdata/fuzz/FuzzTimingOnlyRegionMatchesBytes.
func FuzzTimingOnlyRegionMatchesBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		want := runRegionProgram(t, program, false)
		got := runRegionProgram(t, program, true)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("record %d: timing-only %s, bytes %s", i, fmtRecord(got[i]), fmtRecord(want[i]))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("timing-only rig made %d records, bytes rig %d", len(got), len(want))
		}
	})
}

func fmtRecord(r rigRecord) string {
	switch r.what {
	case "eq", "md":
		return fmt.Sprintf("%s %v at %d len %d off %d err %q", r.what, r.typ, r.at, r.length, r.offset, r.err)
	case "state":
		return r.err
	}
	return fmt.Sprintf("%s [%d,+%d) at %d err %q", r.what, r.offset, r.length, r.at, r.err)
}
