package portals

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// patterned returns n non-zero bytes.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i + 1)
	}
	return b
}

// landed returns what a deposit of data at off leaves in a zeroed region
// of n bytes: the part of data on [0, n), and zeros elsewhere.
func landed(n int, off int64, data []byte) []byte {
	want := make([]byte, n)
	for i, b := range data {
		if j := off + int64(i); j >= 0 && j < int64(n) {
			want[j] = b
		}
	}
	return want
}

// TestDepositLandsOnRegionIntersection puts the same 16 bytes into a plain
// entry and into a handler entry whose header handler returns Proceed,
// both with 64 bytes of Start: each deposit lands on its intersection with
// the region, so both entries hold the same bytes, for offsets inside,
// straddling either end, and wholly outside.
func TestDepositLandsOnRegionIntersection(t *testing.T) {
	data := patterned(16)
	for _, off := range []int64{8, 56, -8, 100, -32} {
		c, nis := pair(t)
		plain, _ := postME(t, nis[1], 0, 1, 64)
		if _, err := nis[1].PTAlloc(1, nil); err != nil {
			t.Fatal(err)
		}
		proceed := &ME{Start: make([]byte, 64), MatchBits: 1, Handlers: core.HandlerSet{
			Header: func(*core.Ctx, core.Header) core.HeaderRC { return core.Proceed },
		}}
		if err := nis[1].MEAppend(1, proceed, PriorityList); err != nil {
			t.Fatal(err)
		}
		md := nis[0].MDBind(data, nil, nil)
		for pt := range 2 {
			if _, err := nis[0].Put(0, PutArgs{MD: md, Length: len(data), Target: 1, PTIndex: pt, MatchBits: 1, RemoteOffset: off}); err != nil {
				t.Fatal(err)
			}
		}
		c.Eng.Run()
		want := landed(64, off, data)
		if !bytes.Equal(plain.Start, want) {
			t.Errorf("offset %d: plain entry holds %v, want %v", off, plain.Start, want)
		}
		if !bytes.Equal(proceed.Start, want) {
			t.Errorf("offset %d: Proceed entry holds %v, want %v", off, proceed.Start, want)
		}
	}
}

// TestGetLandsOnRegionIntersection gets 16 bytes from a 64-byte entry: the
// reply is the requested range's intersection with the region, so a get at
// a negative offset is not served in full. An entry with neither Start nor
// Length has a zero-length region and replies with nothing.
func TestGetLandsOnRegionIntersection(t *testing.T) {
	src := patterned(64)
	for _, tc := range []struct {
		name       string
		me         *ME
		off        int64
		wantOff    int64
		wantLength int
	}{
		{"inside", &ME{Start: src}, 8, 8, 16},
		{"straddles end", &ME{Start: src}, 56, 56, 8},
		{"straddles start", &ME{Start: src}, -8, 0, 8},
		{"past end", &ME{Start: src}, 100, 100, 0},
		{"before start", &ME{Start: src}, -32, 0, 0},
		{"timing-only", &ME{Length: 64}, -8, 0, 8},
		{"no region", &ME{}, 0, 0, 0},
	} {
		c, nis := pair(t)
		if _, err := nis[1].PTAlloc(0, nil); err != nil {
			t.Fatal(err)
		}
		eq := NewEQ(c.Eng)
		tc.me.EQ = eq
		if err := nis[1].MEAppend(0, tc.me, PriorityList); err != nil {
			t.Fatal(err)
		}
		mdEQ := NewEQ(c.Eng)
		md := nis[0].MDBind(make([]byte, 16), nil, mdEQ)
		if _, err := nis[0].Get(0, GetArgs{MD: md, Length: 16, Target: 1, PTIndex: 0, RemoteOffset: tc.off}); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
		evs := eq.Events()
		if len(evs) != 1 || evs[0].Type != EventGet || evs[0].Offset != tc.wantOff || evs[0].Length != tc.wantLength {
			t.Fatalf("%s: target events %+v, want one get of %d bytes at %d", tc.name, evs, tc.wantLength, tc.wantOff)
		}
		replies := mdEQ.Events()
		if len(replies) != 1 || replies[0].Type != EventReply || replies[0].Length != tc.wantLength {
			t.Fatalf("%s: initiator events %+v, want one reply of %d bytes", tc.name, replies, tc.wantLength)
		}
		want := make([]byte, 16)
		if tc.me.Start != nil && tc.wantLength > 0 {
			copy(want, src[tc.wantOff:tc.wantOff+int64(tc.wantLength)])
		}
		if !bytes.Equal(md.Buf, want) {
			t.Errorf("%s: MD holds %v, want %v", tc.name, md.Buf, want)
		}
	}
}

// TestHandlerGetOutsideRegionIsActionError issues a 16-byte handler Get
// into a 64-byte entry: like every other handler action, it must lie
// wholly inside the issuing entry's region. Outside it, the Get records
// an action error, issues nothing and leaves the region untouched.
func TestHandlerGetOutsideRegionIsActionError(t *testing.T) {
	src := patterned(64)
	for _, tc := range []struct {
		local int64
		ok    bool
	}{{8, true}, {48, true}, {1000, false}, {56, false}, {-8, false}} {
		c, nis := pair(t)
		if _, err := nis[0].PTAlloc(1, nil); err != nil {
			t.Fatal(err)
		}
		srcEQ := NewEQ(c.Eng)
		if err := nis[0].MEAppend(1, &ME{Start: src, MatchBits: 2, EQ: srcEQ}, PriorityList); err != nil {
			t.Fatal(err)
		}
		if _, err := nis[1].PTAlloc(0, nil); err != nil {
			t.Fatal(err)
		}
		var getErr error
		eq := NewEQ(c.Eng)
		me := &ME{Start: make([]byte, 64), MatchBits: 1, EQ: eq, Handlers: core.HandlerSet{
			Header: func(ctx *core.Ctx, h core.Header) core.HeaderRC {
				getErr = ctx.Get(core.GetRequest{Target: 0, PTIndex: 1, MatchBits: 2, LocalOffset: tc.local, Length: 16})
				return core.Proceed
			},
		}}
		if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
			t.Fatal(err)
		}
		if _, err := nis[0].Put(0, PutArgs{Target: 1, PTIndex: 0, MatchBits: 1}); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
		evs := eq.Events()
		if len(evs) != 1 {
			t.Fatalf("LocalOffset %d: %d events, want 1", tc.local, len(evs))
		}
		if tc.ok {
			if getErr != nil || evs[0].Type != EventPut || len(srcEQ.Events()) != 1 {
				t.Fatalf("LocalOffset %d: Get error %v, event %+v, %d source events", tc.local, getErr, evs[0], len(srcEQ.Events()))
			}
			if !bytes.Equal(me.Start, landed(64, tc.local, src[:16])) {
				t.Errorf("LocalOffset %d: entry holds %v", tc.local, me.Start)
			}
			continue
		}
		if getErr == nil || !strings.Contains(getErr.Error(), "outside host region") {
			t.Fatalf("LocalOffset %d: Get returned %v, want an outside-host-region error", tc.local, getErr)
		}
		if evs[0].Type != EventError || evs[0].Err == nil {
			t.Errorf("LocalOffset %d: event %+v, want an error event", tc.local, evs[0])
		}
		if n := len(srcEQ.Events()); n != 0 || len(nis[1].outstanding) != 0 {
			t.Errorf("LocalOffset %d: get issued anyway (%d source events, %d outstanding)", tc.local, n, len(nis[1].outstanding))
		}
		if !bytes.Equal(me.Start, make([]byte, 64)) {
			t.Errorf("LocalOffset %d: entry holds %v, want zeros", tc.local, me.Start)
		}
	}
}

// TestMatchExactSourceZero restricts an entry to rank 0: a put from rank 0
// matches it and one from rank 1 does not.
func TestMatchExactSourceZero(t *testing.T) {
	c, err := netsim.NewCluster(3, netsim.Integrated())
	if err != nil {
		t.Fatal(err)
	}
	nis := Setup(c)
	if _, err := nis[2].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	eq := NewEQ(c.Eng)
	me := (&ME{MatchBits: 1, EQ: eq}).MatchExactSource(0)
	if err := nis[2].MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	for src := range 2 {
		if _, err := nis[src].Put(c.Eng.Now(), PutArgs{Length: 8, Target: 2, PTIndex: 0, MatchBits: 1}); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
	}
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Source != 0 {
		t.Fatalf("events %+v, want one put from rank 0", evs)
	}
	if nis[2].Drops != 1 {
		t.Fatalf("%d drops, want the put from rank 1 dropped", nis[2].Drops)
	}
}
