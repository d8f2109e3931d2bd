package portals

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// poolSizes snapshots every pool an error path could leak from: the
// cluster message free list and the NI's pendingOp / sendNote / recvState
// free lists, plus the outstanding-operation table.
type poolSizes struct {
	msgs, ops, notes, recvs, trigs, outstanding int
}

func snapshot(c *netsim.Cluster, ni *NI) poolSizes {
	return poolSizes{
		msgs:        c.PooledMessages(),
		ops:         ni.opFree.Len(),
		notes:       ni.snFree.Len(),
		recvs:       ni.rsFree.Len(),
		trigs:       ni.toFree.Len(),
		outstanding: len(ni.outstanding),
	}
}

// TestErrorPathsLeakNoPooledObjects drives the validated Put/Get error
// paths — oversized user header, transfer outside the MD — and asserts no
// pooled object is drawn and lost: validation happens before any pool is
// touched, so a failing operation leaves every free list and the
// outstanding table exactly as it found them.
func TestErrorPathsLeakNoPooledObjects(t *testing.T) {
	c, nis := pair(t)
	ni := nis[0]
	_, eq := postME(t, nis[1], 5, 7, 4096)
	_ = eq

	// Warm the pools with one successful round trip so "unchanged" below
	// means "recycled", not "never used".
	md := ni.MDBind(make([]byte, 256), NewCT(c.Eng), nil)
	if _, err := ni.Put(0, PutArgs{MD: md, Length: 64, Target: 1, PTIndex: 5, MatchBits: 7, AckReq: true}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	before := snapshot(c, ni)
	if before.outstanding != 0 {
		t.Fatalf("warm-up left %d outstanding ops", before.outstanding)
	}

	now := c.Eng.Now()
	if _, err := ni.Put(now, PutArgs{
		UserHdr: make([]byte, ni.Limits.MaxUserHdrSize+1),
		Length:  8, Target: 1, PTIndex: 5, MatchBits: 7,
	}); err == nil {
		t.Fatal("oversized user header accepted")
	}
	if _, err := ni.Put(now, PutArgs{
		MD: md, LocalOffset: 200, Length: 128, Target: 1, PTIndex: 5, MatchBits: 7,
	}); err == nil {
		t.Fatal("put outside MD bounds accepted")
	}
	if _, err := ni.Get(now, GetArgs{
		MD: md, LocalOffset: -1, Length: 8, Target: 1, PTIndex: 5, MatchBits: 7,
	}); err == nil {
		t.Fatal("get outside MD bounds accepted")
	}
	c.Eng.Run()

	if after := snapshot(c, ni); after != before {
		t.Fatalf("error paths disturbed pools: before %+v, after %+v", before, after)
	}
}

// TestAckForRecycledMessageDoesNotLeak covers the ack-after-completion
// race the pooling contract allows: pendingOps are keyed by message ID (a
// scalar), so an OpAck whose originating put has already completed — its
// wire message long since recycled and possibly reused — must be dropped
// without touching any pool or resurrecting the freed operation.
func TestAckForRecycledMessageDoesNotLeak(t *testing.T) {
	c, nis := pair(t)
	ni := nis[0]
	postME(t, nis[1], 5, 7, 4096)

	ct := NewCT(c.Eng)
	md := ni.MDBind(make([]byte, 64), ct, nil)
	if _, err := ni.Put(0, PutArgs{MD: md, Length: 32, Target: 1, PTIndex: 5, MatchBits: 7, AckReq: true}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	// Send CT increment + ack CT increment.
	if got := ct.Get(); got != 2 {
		t.Fatalf("round trip: CT = %d, want 2", got)
	}
	before := snapshot(c, ni)

	// Replay the ack for the completed (and recycled) put: ID 1 was the
	// first message the cluster issued.
	for i := 0; i < 3; i++ {
		stale := c.AllocMessage()
		stale.Type = netsim.OpAck
		stale.Src = 1
		stale.Dst = 0
		stale.ReplyTo = 1
		c.Send(c.Eng.Now(), stale)
		c.Eng.Run()
	}

	after := snapshot(c, ni)
	if after != before {
		t.Fatalf("stale acks disturbed pools: before %+v, after %+v", before, after)
	}
	if got := ct.Get(); got != 2 {
		t.Fatalf("stale ack incremented the MD counter: CT = %d, want 2", got)
	}
}

// TestSteadyStatePoolsStable pins the retention contract end to end: after
// a warm-up burst, repeating the same mixed workload (data puts with send
// notification, acked puts, gets) must leave every pool at exactly its
// idle size — growth would mean a leak, shrinkage a retained object.
// TestTriggeredOpPoolingSteadyState pins the triggered-op record pool: a
// fired operation's record returns to the free list before the operation
// issues, so repeatedly arming and tripping triggered puts/gets neither
// grows any pool (leak) nor shrinks it (retention), and a warm NI arms
// without allocating.
func TestTriggeredOpPoolingSteadyState(t *testing.T) {
	c, nis := pair(t)
	ni := nis[0]
	postME(t, nis[1], 5, 7, 1<<16)
	md := ni.MDBind(make([]byte, 4096), nil, nil)

	ct := NewCT(c.Eng)
	var reached uint64
	round := func() {
		if err := ni.ArmTriggeredPut(PutArgs{
			MD: md, Length: 256, Target: 1, PTIndex: 5, MatchBits: 7,
		}, ct, reached+1); err != nil {
			t.Fatal(err)
		}
		if err := ni.ArmTriggeredGet(GetArgs{
			MD: md, Length: 128, Target: 1, PTIndex: 5, MatchBits: 7,
		}, ct, reached+2); err != nil {
			t.Fatal(err)
		}
		reached += 2
		ct.Inc(c.Eng.Now(), 2)
		c.Eng.Run()
	}
	round()
	round()
	idle := snapshot(c, ni)
	if idle.trigs < 2 {
		t.Fatalf("warm-up left %d pooled triggered-op records, want >= 2", idle.trigs)
	}
	allocs := testing.AllocsPerRun(20, func() {
		round()
		if got := snapshot(c, ni); got != idle {
			t.Fatalf("pools drifted: idle %+v, got %+v", idle, got)
		}
	})
	// Arming draws pooled records and value-stored triggers; firing
	// schedules the pre-bound trigger pair directly — a warm arm/fire round
	// allocates nothing.
	if allocs > 0 {
		t.Fatalf("steady-state triggered round = %.1f allocs, want 0", allocs)
	}
}

func TestSteadyStatePoolsStable(t *testing.T) {
	c, nis := pair(t)
	ni := nis[0]
	postME(t, nis[1], 5, 7, 1<<16)

	ct := NewCT(c.Eng)
	md := ni.MDBind(make([]byte, 8192), ct, nil)
	burst := func() {
		now := c.Eng.Now()
		if _, err := ni.Put(now, PutArgs{MD: md, Length: 4096, Target: 1, PTIndex: 5, MatchBits: 7}); err != nil {
			t.Fatal(err)
		}
		if _, err := ni.Put(now, PutArgs{MD: md, Length: 64, Target: 1, PTIndex: 5, MatchBits: 7, AckReq: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := ni.Get(now, GetArgs{MD: md, Length: 2048, Target: 1, PTIndex: 5, MatchBits: 7}); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
	}
	burst()
	burst()
	idle := snapshot(c, ni)
	for i := 0; i < 50; i++ {
		burst()
		if got := snapshot(c, ni); got != idle {
			t.Fatalf("iteration %d: pools drifted: idle %+v, got %+v", i, idle, got)
		}
	}
}

// TestLiteralMessageResentAfterMidFlightReset covers a receive abandoned
// mid-flight: a literal (never recycled) multi-packet put is cut off by a
// reset of the cluster and its NIs after its header packet was received,
// and the same message is then sent again. The receive state of the first
// send is left behind on the message, so the second send must start over
// from its header: on a plain ME and on a handler ME alike, it must
// deposit, run handlers and complete exactly as the same send does on a
// fresh cluster.
func TestLiteralMessageResentAfterMidFlightReset(t *testing.T) {
	const length = 6 * 4096
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	type outcome struct {
		events  []Event
		deposit []byte
		calls   []int // payload handler offsets
		drops   uint64
	}
	run := func(t *testing.T, handler, resetMidFlight bool) outcome {
		c, nis := pair(t)
		var o outcome
		post := func() (*ME, *EQ) {
			if _, err := nis[1].PTAlloc(0, nil); err != nil {
				t.Fatal(err)
			}
			me := &ME{Start: make([]byte, length), EQ: NewEQ(c.Eng)}
			if handler {
				me.Handlers.Payload = func(ctx *core.Ctx, p core.Payload) core.PayloadRC {
					o.calls = append(o.calls, p.Offset)
					return core.PayloadSuccess
				}
			}
			if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
				t.Fatal(err)
			}
			return me, me.EQ
		}
		me, eq := post()
		msg := &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: length, Data: data}
		if resetMidFlight {
			c.Send(0, msg)
			for len(o.calls) == 0 && me.Start[0] == 0 {
				if !c.Eng.Step() {
					t.Fatal("engine drained before the header packet was received")
				}
			}
			if len(eq.Events()) != 0 {
				t.Fatal("message completed before the reset")
			}
			c.Reset()
			for _, ni := range nis {
				ni.Reset()
			}
			o.calls = o.calls[:0]
			me, eq = post()
		}
		c.Send(0, msg)
		c.Eng.Run()
		return outcome{events: eq.Events(), deposit: me.Start, calls: o.calls, drops: nis[1].Drops}
	}
	for _, tc := range []struct {
		name    string
		handler bool
	}{{"plain", false}, {"handler", true}} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(t, tc.handler, false)
			got := run(t, tc.handler, true)
			if len(want.events) != 1 || len(got.events) != 1 {
				t.Fatalf("completion events: fresh %d, after reset %d; want 1 each", len(want.events), len(got.events))
			}
			w, g := want.events[0], got.events[0]
			if g.Type != w.Type || g.At != w.At || g.Length != w.Length || g.Offset != w.Offset || g.Source != w.Source {
				t.Fatalf("completion after reset %+v, fresh %+v", g, w)
			}
			if !bytes.Equal(got.deposit, want.deposit) {
				t.Fatal("deposited bytes differ from the fresh cluster's")
			}
			if !slices.Equal(got.calls, want.calls) || got.drops != want.drops {
				t.Fatalf("after reset: handler offsets %v, drops %d; fresh: %v, %d", got.calls, got.drops, want.calls, want.drops)
			}
		})
	}
}
