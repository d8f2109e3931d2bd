package portals

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// pair builds a 2-node cluster with NIs installed.
func pair(t *testing.T) (*netsim.Cluster, []*NI) {
	t.Helper()
	c, err := netsim.NewCluster(2, netsim.Integrated())
	if err != nil {
		t.Fatal(err)
	}
	return c, Setup(c)
}

// postME appends a simple priority-list ME with a fresh buffer and EQ.
func postME(t *testing.T, ni *NI, pt int, bits uint64, size int) (*ME, *EQ) {
	t.Helper()
	eq := NewEQ(ni.C.Eng)
	if _, err := ni.PTAlloc(pt, nil); err != nil {
		// Entry may already exist in this test; that's fine.
		_ = err
	}
	me := &ME{Start: make([]byte, size), MatchBits: bits, EQ: eq}
	if err := ni.MEAppend(pt, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	return me, eq
}

func TestPutDepositsIntoMatchedME(t *testing.T) {
	c, nis := pair(t)
	me, eq := postME(t, nis[1], 0, 0x11, 8192)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	md := nis[0].MDBind(data, nil, nil)
	if _, err := nis[0].Put(0, PutArgs{MD: md, Length: len(data), Target: 1, PTIndex: 0, MatchBits: 0x11, RemoteOffset: 64}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if !bytes.Equal(me.Start[64:64+len(data)], data) {
		t.Fatal("payload not deposited at remote offset")
	}
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventPut {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Length != len(data) || evs[0].Offset != 64 || evs[0].Source != 0 {
		t.Fatalf("event fields = %+v", evs[0])
	}
	if evs[0].At <= 0 {
		t.Fatal("event time not set")
	}
}

func TestMatchBitsAndIgnoreBits(t *testing.T) {
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	eqA := NewEQ(c.Eng)
	meA := &ME{Start: make([]byte, 64), MatchBits: 0xA0, IgnoreBits: 0x0F, EQ: eqA}
	if err := nis[1].MEAppend(0, meA, PriorityList); err != nil {
		t.Fatal(err)
	}
	eqB := NewEQ(c.Eng)
	meB := &ME{Start: make([]byte, 64), MatchBits: 0xB0, EQ: eqB}
	if err := nis[1].MEAppend(0, meB, PriorityList); err != nil {
		t.Fatal(err)
	}
	// 0xA7 matches meA (low nibble ignored); 0xB0 matches meB.
	md := nis[0].MDBind(make([]byte, 8), nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0xA7})
	nis[0].Put(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0xB0})
	c.Eng.Run()
	if len(eqA.Events()) != 1 {
		t.Fatalf("meA events = %d, want 1", len(eqA.Events()))
	}
	if len(eqB.Events()) != 1 {
		t.Fatalf("meB events = %d, want 1", len(eqB.Events()))
	}
}

// TestPriorityBeforeOverflow checks that the priority list is searched
// first and that a put matched on the overflow list posts PUT_OVERFLOW,
// from a plain entry and from a handler entry whose header returns
// Proceed alike.
func TestPriorityBeforeOverflow(t *testing.T) {
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	hovEQ := NewEQ(c.Eng)
	hov := &ME{Start: make([]byte, 64), MatchBits: 7, EQ: hovEQ}
	hov.Handlers.Header = func(*core.Ctx, core.Header) core.HeaderRC { return core.Proceed }
	if err := nis[1].MEAppend(0, hov, OverflowList); err != nil {
		t.Fatal(err)
	}
	ovEQ := NewEQ(c.Eng)
	ov := &ME{Start: make([]byte, 1024), IgnoreBits: ^uint64(0), ManageLocal: true, EQ: ovEQ}
	if err := nis[1].MEAppend(0, ov, OverflowList); err != nil {
		t.Fatal(err)
	}
	prEQ := NewEQ(c.Eng)
	pr := &ME{Start: make([]byte, 64), MatchBits: 5, EQ: prEQ}
	if err := nis[1].MEAppend(0, pr, PriorityList); err != nil {
		t.Fatal(err)
	}
	md := nis[0].MDBind(bytes.Repeat([]byte{0x5a}, 16), nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 16, Target: 1, PTIndex: 0, MatchBits: 5})
	nis[0].Put(0, PutArgs{MD: md, Length: 16, Target: 1, PTIndex: 0, MatchBits: 99})
	nis[0].Put(0, PutArgs{MD: md, Length: 16, Target: 1, PTIndex: 0, MatchBits: 7})
	c.Eng.Run()
	if len(prEQ.Events()) != 1 || prEQ.Events()[0].Type != EventPut {
		t.Fatalf("priority events: %+v", prEQ.Events())
	}
	if len(ovEQ.Events()) != 1 || ovEQ.Events()[0].Type != EventPutOverflow {
		t.Fatalf("overflow events: %+v", ovEQ.Events())
	}
	if len(hovEQ.Events()) != 1 || hovEQ.Events()[0].Type != EventPutOverflow {
		t.Fatalf("Proceed handler overflow events: %+v", hovEQ.Events())
	}
	if !bytes.Equal(hov.Start[:16], md.Buf) {
		t.Fatal("Proceed handler overflow entry did not deposit the put")
	}
}

func TestManageLocalPacksMessages(t *testing.T) {
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	eq := NewEQ(c.Eng)
	me := &ME{Start: make([]byte, 4096), IgnoreBits: ^uint64(0), ManageLocal: true, EQ: eq}
	if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0xAA}, 100)
	b := bytes.Repeat([]byte{0xBB}, 50)
	nis[0].Put(0, PutArgs{MD: nis[0].MDBind(a, nil, nil), Length: 100, Target: 1, PTIndex: 0, RemoteOffset: 777})
	nis[0].Put(0, PutArgs{MD: nis[0].MDBind(b, nil, nil), Length: 50, Target: 1, PTIndex: 0, RemoteOffset: 888})
	c.Eng.Run()
	// Requested offsets ignored; messages packed back-to-back.
	if !bytes.Equal(me.Start[:100], a) || !bytes.Equal(me.Start[100:150], b) {
		t.Fatal("locally-managed offsets did not pack messages")
	}
	evs := eq.Events()
	if evs[0].Offset != 0 || evs[1].Offset != 100 {
		t.Fatalf("event offsets = %d, %d", evs[0].Offset, evs[1].Offset)
	}
}

func TestUseOnceUnlinks(t *testing.T) {
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	eq := NewEQ(c.Eng)
	me := &ME{Start: make([]byte, 64), MatchBits: 1, UseOnce: true, EQ: eq}
	if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	md := nis[0].MDBind(make([]byte, 8), nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 1})
	c.Eng.Run()
	if !me.Unlinked() {
		t.Fatal("UseOnce ME still linked")
	}
	// Second message finds no match: dropped, portal disabled.
	nis[0].Put(c.Eng.Now(), PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 1})
	c.Eng.Run()
	if nis[1].Drops == 0 {
		t.Fatal("unmatched message not dropped")
	}
}

func TestNoMatchTriggersFlowControl(t *testing.T) {
	c, nis := pair(t)
	eq := NewEQ(c.Eng)
	if _, err := nis[1].PTAlloc(0, eq); err != nil {
		t.Fatal(err)
	}
	md := nis[0].MDBind(make([]byte, 8), nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 42})
	c.Eng.Run()
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventDropped || !evs[0].FlowControl {
		t.Fatalf("expected dropped event, got %+v", evs)
	}
	// Portal is now disabled until re-enabled.
	me := &ME{Start: make([]byte, 64), MatchBits: 42}
	if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	nis[0].Put(c.Eng.Now(), PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 42})
	c.Eng.Run()
	if drops := nis[1].Drops; drops != 2 {
		t.Fatalf("drops = %d, want 2 (portal disabled)", drops)
	}
	nis[1].PTEnable(0)
	nis[0].Put(c.Eng.Now(), PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 42})
	c.Eng.Run()
	if nis[1].Drops != 2 {
		t.Fatal("message dropped after PTEnable")
	}
}

func TestGetFetchesFromME(t *testing.T) {
	c, nis := pair(t)
	me, _ := postME(t, nis[1], 0, 7, 4096)
	for i := range me.Start {
		me.Start[i] = byte(i % 100)
	}
	dst := make([]byte, 512)
	ct := NewCT(c.Eng)
	eq := NewEQ(c.Eng)
	md := nis[0].MDBind(dst, ct, eq)
	nis[0].Get(0, GetArgs{MD: md, Length: 512, Target: 1, PTIndex: 0, MatchBits: 7, RemoteOffset: 100})
	c.Eng.Run()
	if !bytes.Equal(dst, me.Start[100:612]) {
		t.Fatal("get reply content wrong")
	}
	if ct.Get() != 1 {
		t.Fatalf("MD counter = %d, want 1", ct.Get())
	}
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventReply {
		t.Fatalf("MD events = %+v, want one REPLY", evs)
	}
	doneAt := evs[0].At
	// A get round trip costs at least 2 network latencies plus the DMA
	// fetch at the target.
	min := 2*c.P.Topo.Latency(0, 1) + 2*c.P.DMA.L
	if doneAt < min {
		t.Fatalf("get completed at %v, faster than physically possible %v", doneAt, min)
	}
}

func TestAtomicSumAppliesElementwise(t *testing.T) {
	c, nis := pair(t)
	me, eq := postME(t, nis[1], 0, 3, 64)
	for i := 0; i < 8; i++ {
		me.Start[i*8] = 10 // little-endian 10 per u64
	}
	src := make([]byte, 64)
	for i := 0; i < 8; i++ {
		src[i*8] = byte(i)
	}
	md := nis[0].MDBind(src, nil, nil)
	if _, err := nis[0].Atomic(0, PutArgs{MD: md, Length: 64, Target: 1, PTIndex: 0, MatchBits: 3}, AtomicSum); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	for i := 0; i < 8; i++ {
		if me.Start[i*8] != byte(10+i) {
			t.Fatalf("element %d = %d, want %d", i, me.Start[i*8], 10+i)
		}
	}
	if evs := eq.Events(); len(evs) != 1 || evs[0].Type != EventAtomic {
		t.Fatalf("events = %+v", evs)
	}
}

func TestAtomicBXOR(t *testing.T) {
	c, nis := pair(t)
	me, _ := postME(t, nis[1], 0, 3, 16)
	copy(me.Start, bytes.Repeat([]byte{0xF0}, 16))
	src := bytes.Repeat([]byte{0x0F}, 16)
	md := nis[0].MDBind(src, nil, nil)
	nis[0].Atomic(0, PutArgs{MD: md, Length: 16, Target: 1, PTIndex: 0, MatchBits: 3}, AtomicBXOR)
	c.Eng.Run()
	if !bytes.Equal(me.Start, bytes.Repeat([]byte{0xFF}, 16)) {
		t.Fatal("BXOR result wrong")
	}
}

func TestAckRequestRoundTrip(t *testing.T) {
	c, nis := pair(t)
	postME(t, nis[1], 0, 9, 128)
	ct := NewCT(c.Eng)
	md := nis[0].MDBind(make([]byte, 64), ct, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 64, Target: 1, PTIndex: 0, MatchBits: 9, AckReq: true})
	c.Eng.Run()
	// CT counts the send completion AND the ack.
	if ct.Get() != 2 {
		t.Fatalf("CT = %d, want 2 (send + ack)", ct.Get())
	}
}

// TestPlainEntryCompletesAtVisibility pins when a put completes at a plain
// entry: the counter increment, the full event and the ack all happen at
// the instant the last deposit is visible in host memory. Node 0 sends a
// 4096-byte acked put to node 1, and node 1 posts an 8-byte DevicePut to
// node 0 at 300 ns, after the put's last packet has arrived but before its
// deposit is visible. The entry's counter must first read 1 at the
// visibility time, and the DevicePut must reach node 0 exactly when it
// does with no ack requested: an ack must not hold node 1's egress from
// the moment the last packet arrives.
func TestPlainEntryCompletesAtVisibility(t *testing.T) {
	const posted = 300 * sim.Nanosecond
	run := func(ackReq bool) (counted, visible, devicePut sim.Time) {
		c, nis := pair(t)
		rec := &timeline.Recorder{}
		c.Rec = rec
		if _, err := nis[1].PTAlloc(0, nil); err != nil {
			t.Fatal(err)
		}
		ct := NewCT(c.Eng)
		if err := nis[1].MEAppend(0, &ME{Start: make([]byte, 4096), IgnoreBits: ^uint64(0), CT: ct}, PriorityList); err != nil {
			t.Fatal(err)
		}
		_, eq0 := postME(t, nis[0], 0, 0, 64)
		if _, err := nis[0].Put(0, PutArgs{MD: nis[0].MDBind(make([]byte, 4096), nil, nil), Length: 4096, Target: 1, AckReq: ackReq}); err != nil {
			t.Fatal(err)
		}
		dp := PutArgs{MD: nis[1].MDBind(make([]byte, 8), nil, nil), Length: 8, Target: 0}
		c.Eng.ScheduleCall(posted, func(any) {
			if err := nis[1].DevicePut(c.Eng.Now(), dp); err != nil {
				t.Error(err)
			}
		}, nil)
		counted = -1
		for c.Eng.Step() {
			if counted < 0 && ct.Get() > 0 {
				counted = c.Eng.Now()
			}
		}
		for _, s := range rec.Spans {
			if s.Rank == 1 && s.Lane == "DMA" && s.Label == "deposit" && s.End > visible {
				visible = s.End
			}
		}
		if evs := eq0.Events(); len(evs) != 1 {
			t.Fatalf("node 0 events: %+v, want the DevicePut's", evs)
		}
		return counted, visible, eq0.Events()[0].At
	}
	counted, visible, acked := run(true)
	if counted != visible {
		t.Errorf("entry counter first read 1 at %v; the deposit was visible at %v", counted, visible)
	}
	if visible <= posted {
		t.Fatalf("deposit visible at %v, before the DevicePut at %v: the rig no longer probes an early ack", visible, posted)
	}
	if _, _, unacked := run(false); acked != unacked {
		t.Errorf("DevicePut posted at %v reached node 0 at %v behind the ack, at %v with no ack", posted, acked, unacked)
	}
}

func TestTriggeredPutFiresAtThreshold(t *testing.T) {
	// Classic P4 ping-pong: a pre-armed put at node 1 fires when the ME
	// counter reaches 1 — no CPU involvement.
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	ct1 := NewCT(c.Eng)
	me1 := &ME{Start: make([]byte, 4096), IgnoreBits: ^uint64(0), CT: ct1}
	if err := nis[1].MEAppend(0, me1, PriorityList); err != nil {
		t.Fatal(err)
	}
	pongData := bytes.Repeat([]byte{0x42}, 256)
	if err := nis[1].ArmTriggeredPut(PutArgs{MD: nis[1].MDBind(pongData, nil, nil), Length: 256, Target: 0, PTIndex: 0, MatchBits: 1}, ct1, 1); err != nil {
		t.Fatal(err)
	}

	me0, eq0 := postME(t, nis[0], 0, 1, 4096)
	ping := bytes.Repeat([]byte{0x41}, 256)
	nis[0].Put(0, PutArgs{MD: nis[0].MDBind(ping, nil, nil), Length: 256, Target: 1, PTIndex: 0, MatchBits: 0})
	c.Eng.Run()
	if len(eq0.Events()) != 1 {
		t.Fatalf("pong not received: %+v", eq0.Events())
	}
	if !bytes.Equal(me0.Start[:256], pongData) {
		t.Fatal("pong content wrong")
	}
}

func TestTriggeredAlreadyReachedFiresImmediately(t *testing.T) {
	c, nis := pair(t)
	postME(t, nis[0], 0, 1, 64)
	ct := NewCT(c.Eng)
	ct.Inc(0, 5)
	fired := 0
	ct.OnReachCall(3, countFire, &fired)
	c.Eng.Run()
	if fired != 1 {
		t.Fatalf("trigger armed past threshold fired %d times, want 1", fired)
	}
	_ = nis
}

// countFire is an OnReachCall target that counts firings into the *int it
// is armed with.
func countFire(a any) { *a.(*int)++ }

func TestHandlerMECompletionEvent(t *testing.T) {
	c, nis := pair(t)
	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	eq := NewEQ(c.Eng)
	hm, err := nis[1].RT.AllocHPUMem(64)
	if err != nil {
		t.Fatal(err)
	}
	me := &ME{
		Start:        make([]byte, 8192),
		MatchBits:    1,
		EQ:           eq,
		HPUMem:       hm,
		InitialState: []byte{1, 2, 3, 4},
		Handlers: core.HandlerSet{
			Payload: func(ctx *core.Ctx, p core.Payload) core.PayloadRC {
				if p.Offset == 0 && ctx.State()[0] != 1 {
					t.Error("initial state not installed")
				}
				return core.PayloadSuccess
			},
		},
	}
	if err := nis[1].MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	md := nis[0].MDBind(make([]byte, 8192), nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 8192, Target: 1, PTIndex: 0, MatchBits: 1})
	c.Eng.Run()
	evs := eq.Events()
	if len(evs) != 1 || evs[0].Type != EventPut {
		t.Fatalf("handler completion events = %+v", evs)
	}
}

func TestHandlerGetPlumbing(t *testing.T) {
	// Node 1's header handler gets 1 KiB from node 0 (rendezvous-style)
	// and the data lands in node 1's ME host memory.
	c, nis := pair(t)
	// Source descriptor at node 0, PT 1: the send-side rendezvous data.
	srcData := make([]byte, 1024)
	for i := range srcData {
		srcData[i] = byte(i % 97)
	}
	if _, err := nis[0].PTAlloc(1, nil); err != nil {
		t.Fatal(err)
	}
	srcME := &ME{Start: srcData, MatchBits: 0xbeef}
	if err := nis[0].MEAppend(1, srcME, PriorityList); err != nil {
		t.Fatal(err)
	}

	if _, err := nis[1].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	rdvME := &ME{
		Start:     make([]byte, 2048),
		MatchBits: 1,
		Handlers: core.HandlerSet{
			Header: func(ctx *core.Ctx, h core.Header) core.HeaderRC {
				err := ctx.Get(core.GetRequest{
					Target:    h.Source,
					PTIndex:   1,
					MatchBits: h.HdrData, // sender advertised its tag
					Length:    1024,
				})
				if err != nil {
					t.Errorf("handler get: %v", err)
				}
				return core.ProceedPending
			},
		},
	}
	if err := nis[1].MEAppend(0, rdvME, PriorityList); err != nil {
		t.Fatal(err)
	}
	// RTS: a zero-payload put advertising the source descriptor tag.
	nis[0].Put(0, PutArgs{Length: 0, Target: 1, PTIndex: 0, MatchBits: 1, HdrData: 0xbeef})
	c.Eng.Run()
	// The reply resolved the get: its pending operation left the
	// outstanding table and returned to the pool.
	if len(nis[1].outstanding) != 0 || nis[1].opFree.Len() != 1 {
		t.Fatalf("handler get never completed: %d outstanding, %d pooled ops", len(nis[1].outstanding), nis[1].opFree.Len())
	}
	if !bytes.Equal(rdvME.Start[:1024], srcData) {
		t.Fatal("handler get data wrong")
	}
}

func TestMEAppendValidation(t *testing.T) {
	_, nis := pair(t)
	ni := nis[1]
	if _, err := ni.PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := ni.MEAppend(5, &ME{}, PriorityList); err == nil {
		t.Fatal("append to unallocated PT accepted")
	}
	if err := ni.MEAppend(0, &ME{InitialState: make([]byte, 10)}, PriorityList); err == nil {
		t.Fatal("initial state without HPU memory accepted")
	}
	big := make([]byte, 8192)
	if err := ni.MEAppend(0, &ME{InitialState: big, HPUMem: &core.HPUMem{Buf: make([]byte, 16384)}}, PriorityList); err == nil {
		t.Fatal("oversized initial state accepted")
	}
	if err := ni.MEAppend(0, &ME{Start: make([]byte, 8), Length: 8}, PriorityList); err == nil {
		t.Fatal("ME with both Start and Length accepted")
	}
	if err := ni.MEAppend(0, &ME{Length: -1}, PriorityList); err == nil {
		t.Fatal("ME with a negative Length accepted")
	}
	if err := ni.MEAppend(0, &ME{Length: 8}, PriorityList); err != nil {
		t.Fatalf("timing-only ME rejected: %v", err)
	}
	me := &ME{}
	if err := ni.MEAppend(0, me, PriorityList); err != nil {
		t.Fatal(err)
	}
	if err := ni.MEAppend(0, me, PriorityList); err == nil {
		t.Fatal("double append accepted")
	}
}

func TestPTAllocValidation(t *testing.T) {
	_, nis := pair(t)
	if _, err := nis[0].PTAlloc(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := nis[0].PTAlloc(0, nil); err == nil {
		t.Fatal("duplicate PT index accepted")
	}
	if _, err := nis[0].PTAlloc(-1, nil); err == nil {
		t.Fatal("negative PT index accepted")
	}
	if _, err := nis[0].PTAlloc(1000, nil); err == nil {
		t.Fatal("PT index beyond limit accepted")
	}
}

func TestPutValidatesMDRange(t *testing.T) {
	_, nis := pair(t)
	md := nis[0].MDBind(make([]byte, 8), nil, nil)
	if _, err := nis[0].Put(0, PutArgs{MD: md, Length: 16, Target: 1, PTIndex: 0}); err == nil {
		t.Fatal("put beyond MD accepted")
	}
	if _, err := nis[0].Put(0, PutArgs{MD: md, Length: 4, LocalOffset: -1, Target: 1, PTIndex: 0}); err == nil {
		t.Fatal("negative local offset accepted")
	}
}

func TestEQPollUpTo(t *testing.T) {
	c, _ := pair(t)
	eq := NewEQ(c.Eng)
	eq.Append(Event{Type: EventPut, At: 100})
	eq.Append(Event{Type: EventAck, At: 50})
	eq.Append(Event{Type: EventGet, At: 200})
	got := eq.PollUpTo(150)
	if len(got) != 2 || got[0].Type != EventAck || got[1].Type != EventPut {
		t.Fatalf("PollUpTo = %+v", got)
	}
}

// TestHandledEQStoresNothing pins that an EQ with an OnEvent handler keeps
// no history: puts into its entry each reach the handler once, in order,
// while Events and PollUpTo stay empty and the queue's backing array is
// never allocated.
func TestHandledEQStoresNothing(t *testing.T) {
	const puts = 50
	c, nis := pair(t)
	_, eq := postME(t, nis[1], 0, 1, 64)
	var seen []uint64
	eq.OnEvent(func(ev Event) { seen = append(seen, ev.HdrData) })
	md := nis[0].MDBind(make([]byte, 8), nil, nil)
	for i := range puts {
		a := PutArgs{MD: md, Length: 8, Target: 1, PTIndex: 0, MatchBits: 1, HdrData: uint64(i)}
		if _, err := nis[0].Put(c.Eng.Now(), a); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
		if evs := eq.Events(); len(evs) != 0 || cap(evs) != 0 {
			t.Fatalf("after put %d the queue holds %d events (capacity %d)", i, len(evs), cap(evs))
		}
	}
	if len(seen) != puts {
		t.Fatalf("handler saw %d events, want %d", len(seen), puts)
	}
	for i, h := range seen {
		if h != uint64(i) {
			t.Fatalf("event %d carries header data %d", i, h)
		}
	}
	if evs := eq.PollUpTo(c.Eng.Now()); len(evs) != 0 {
		t.Fatalf("PollUpTo = %+v, want nothing", evs)
	}
}

func TestCTSetAndFailures(t *testing.T) {
	c, _ := pair(t)
	ct := NewCT(c.Eng)
	ct.Inc(0, 3)
	ct.IncFailure(0)
	if ct.Get() != 3 || ct.Failures() != 1 {
		t.Fatalf("ct = %d/%d", ct.Get(), ct.Failures())
	}
	fired := 0
	ct.OnReachCall(10, countFire, &fired)
	ct.Set(0, 10)
	c.Eng.Run()
	if fired != 1 {
		t.Fatalf("trigger fired %d times", fired)
	}
}

func TestTruncationAtMEBoundary(t *testing.T) {
	c, nis := pair(t)
	me, eq := postME(t, nis[1], 0, 1, 100)
	data := bytes.Repeat([]byte{0x7f}, 200)
	md := nis[0].MDBind(data, nil, nil)
	nis[0].Put(0, PutArgs{MD: md, Length: 200, Target: 1, PTIndex: 0, MatchBits: 1})
	c.Eng.Run()
	if !bytes.Equal(me.Start, data[:100]) {
		t.Fatal("truncated deposit wrong")
	}
	if len(eq.Events()) != 1 {
		t.Fatal("no completion event after truncation")
	}
}

func TestTriggeredOpsValidateAtArmTime(t *testing.T) {
	c, nis := pair(t)
	ct := NewCT(c.Eng)
	md := nis[0].MDBind(make([]byte, 64), nil, nil)

	// A put that reads outside its MD could never fire; before arm-time
	// validation this panicked deep in the event loop when ct tripped.
	if err := nis[0].ArmTriggeredPut(PutArgs{
		MD: md, LocalOffset: 32, Length: 64, Target: 1, PTIndex: 0, MatchBits: 1,
	}, ct, 1); err == nil {
		t.Fatal("triggered put outside MD accepted at arm time")
	}
	if err := nis[0].ArmTriggeredPut(PutArgs{
		MD: md, Length: 8, Target: 7, PTIndex: 0, MatchBits: 1,
	}, ct, 1); err == nil {
		t.Fatal("triggered put to nonexistent target accepted at arm time")
	}
	if err := nis[0].ArmTriggeredGet(GetArgs{
		MD: md, LocalOffset: -1, Length: 8, Target: 1, PTIndex: 0, MatchBits: 1,
	}, ct, 1); err == nil {
		t.Fatal("triggered get outside MD accepted at arm time")
	}
	// Rejected operations leave nothing armed: tripping the counter fires
	// no message.
	sent := c.MessagesSent
	ct.Inc(0, 1)
	c.Eng.Run()
	if c.MessagesSent != sent {
		t.Fatalf("rejected triggered ops fired %d messages", c.MessagesSent-sent)
	}
}

func TestTriggeredGetFiresAtThreshold(t *testing.T) {
	c, nis := pair(t)
	// Node 1 exposes data; node 0 arms a get triggered by a counter.
	src, _ := postME(t, nis[1], 0, 5, 4096)
	copy(src.Start, bytes.Repeat([]byte{0x7e}, 512))
	ct := NewCT(c.Eng)
	buf := make([]byte, 512)
	replyCT := NewCT(c.Eng)
	md := nis[0].MDBind(buf, replyCT, nil)
	if err := nis[0].ArmTriggeredGet(GetArgs{
		MD: md, Length: 512, Target: 1, PTIndex: 0, MatchBits: 5,
	}, ct, 1); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if replyCT.Get() != 0 {
		t.Fatal("get fired before threshold")
	}
	ct.Inc(c.Eng.Now(), 1)
	c.Eng.Run()
	if replyCT.Get() == 0 {
		t.Fatal("triggered get did not fire at threshold")
	}
	if !bytes.Equal(buf, src.Start[:512]) {
		t.Fatal("triggered get returned wrong data")
	}
}
