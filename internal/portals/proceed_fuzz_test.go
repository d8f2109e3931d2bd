package portals

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// proceedRig is a one-node cluster whose NI sends to itself, with one
// entry on portal 0: a plain entry, or a handler entry whose header
// handler returns Proceed. Either way the entry owns n bytes of Start
// filled with one pattern, and sits on the list the program picks.
type proceedRig struct {
	c          *netsim.Cluster
	ni         *NI
	me         *ME
	md         *MD
	eq, mdEQ   *EQ
	recs       []rigRecord
	seen, mdAt int
}

func newProceedRig(t *testing.T, n int, list ListKind, proceed bool) *proceedRig {
	t.Helper()
	c, err := netsim.NewCluster(1, netsim.Integrated())
	if err != nil {
		t.Fatal(err)
	}
	r := &proceedRig{c: c, ni: NewNI(c, 0), eq: NewEQ(c.Eng), mdEQ: NewEQ(c.Eng)}
	r.md = r.ni.MDBind(make([]byte, rigBufBytes), nil, r.mdEQ)
	for i := range r.md.Buf {
		r.md.Buf[i] = byte(i*7 + 1)
	}
	r.me = &ME{Start: make([]byte, n), IgnoreBits: ^uint64(0), EQ: r.eq, CT: NewCT(c.Eng)}
	for i := range r.me.Start {
		r.me.Start[i] = byte(i*13 + 5)
	}
	if proceed {
		r.me.Handlers.Header = func(*core.Ctx, core.Header) core.HeaderRC { return core.Proceed }
	}
	if _, err := r.ni.PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ni.MEAppend(0, r.me, list); err != nil {
		t.Fatal(err)
	}
	return r
}

// run issues one operation at the engine's current time, runs the engine
// dry, and records the events it raised without their times, then a state
// record: the operations still outstanding at the initiator (an ack that
// never came) and the entry's counter.
func (r *proceedRig) run(op func(now sim.Time) error) {
	if err := op(r.c.Eng.Now()); err != nil {
		r.recs = append(r.recs, rigRecord{what: "op", err: err.Error()})
	}
	r.c.Eng.Run()
	for _, ev := range r.eq.Events()[r.seen:] {
		r.recs = append(r.recs, rigRecord{what: "eq", typ: ev.Type, length: ev.Length, offset: ev.Offset, err: errString(ev.Err)})
	}
	r.seen = len(r.eq.Events())
	for _, ev := range r.mdEQ.Events()[r.mdAt:] {
		r.recs = append(r.recs, rigRecord{what: "md", typ: ev.Type, length: ev.Length, offset: ev.Offset, err: errString(ev.Err)})
	}
	r.mdAt = len(r.mdEQ.Events())
	r.recs = append(r.recs, rigRecord{what: "state", err: fmt.Sprintf("%d outstanding, ct %d, %d failures",
		len(r.ni.outstanding), r.me.CT.Get(), r.me.CT.Failures())})
}

// runProceedProgram decodes program and runs it on one rig. The program is
// a big-endian u16 region length n (1 + v mod 16384) and a list byte (bit
// 0 puts the entry on the overflow list), then up to 32 operations, each
// an opcode byte (mod 3), a signed i16 remote offset, a u16 length and a
// flags byte:
//
//	0 put: flags bit 0 sends data from an MD, bit 1 asks for an ack
//	1 atomic: as a put, and bits 2-3 (mod 3) pick AtomicSum, AtomicBXOR
//	  or AtomicSwap
//	2 get into the MD at the same offset mod 4096 (flags unused)
func runProceedProgram(t *testing.T, program []byte, proceed bool) *proceedRig {
	in := oracleInput(program)
	n := 1 + in.u16()%16384
	list := PriorityList
	if in.u8()&1 != 0 {
		list = OverflowList
	}
	r := newProceedRig(t, n, list, proceed)
	for i := 0; i < 32 && len(in) > 0; i++ {
		kind, off, length, flags := in.u8()%3, in.i16(), in.u16(), in.u8()
		a := PutArgs{Length: length, RemoteOffset: off, AckReq: flags&2 != 0}
		if flags&1 != 0 {
			a.MD = r.md
		}
		switch kind {
		case 0:
			r.run(func(now sim.Time) error { _, err := r.ni.Put(now, a); return err })
		case 1:
			op := AtomicSum + AtomicOp((flags>>2&3)%3)
			r.run(func(now sim.Time) error { _, err := r.ni.Atomic(now, a, op); return err })
		default:
			g := GetArgs{MD: r.md, LocalOffset: off & 4095, Length: min(length, rigBufBytes-4096), RemoteOffset: off}
			r.run(func(now sim.Time) error { _, err := r.ni.Get(now, g); return err })
		}
	}
	return r
}

// FuzzProceedEntryMatchesPlain is the differential oracle for the default
// action (sPIN Appendix B.3: a header handler's Proceed "executes the
// default action"): two rigs whose entries differ only in a header
// handler that returns Proceed run the same program of puts with and
// without data, AtomicSum, AtomicBXOR and AtomicSwap, and gets, at any
// offset, acked or not, with the entry on either list. Both must end with
// the same region and MD bytes and must post the same events (type,
// length, offset) and acks, in the same order; times may differ, because
// the header handler runs on an HPU first.
// The seed corpus lives in testdata/fuzz/FuzzProceedEntryMatchesPlain.
func FuzzProceedEntryMatchesPlain(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte) {
		want := runProceedProgram(t, program, false)
		got := runProceedProgram(t, program, true)
		for i := range min(len(got.recs), len(want.recs)) {
			if got.recs[i] != want.recs[i] {
				t.Fatalf("record %d: Proceed entry %s, plain entry %s", i, fmtRecord(got.recs[i]), fmtRecord(want.recs[i]))
			}
		}
		if len(got.recs) != len(want.recs) {
			t.Fatalf("Proceed entry made %d records, plain entry %d", len(got.recs), len(want.recs))
		}
		if !bytes.Equal(got.me.Start, want.me.Start) {
			t.Fatal("Proceed entry's region bytes differ from the plain entry's")
		}
		if !bytes.Equal(got.md.Buf, want.md.Buf) {
			t.Fatal("MD bytes after the gets differ between the rigs")
		}
	})
}
