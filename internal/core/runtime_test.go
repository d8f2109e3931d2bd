package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/timeline"
)

// meReceiver routes every matched packet of a node into the sPIN runtime
// with a fixed MEContext — a minimal stand-in for the Portals layer.
type meReceiver struct {
	rt *Runtime
	me *MEContext
}

func (r *meReceiver) ReceivePacket(now sim.Time, pkt *netsim.Packet) {
	r.rt.Deliver(now, pkt, r.me)
}

// completeFunc is a test MEOwner that hands every message completion to
// the function; counter increments and handler gets are ignored.
type completeFunc func(now sim.Time, r MessageResult)

func (f completeFunc) MEComplete(now sim.Time, r MessageResult) { f(now, r) }
func (completeFunc) MECTInc(sim.Time, uint64)                   {}
func (completeFunc) MEIssueGet(sim.Time, GetRequest)            {}

type harness struct {
	c  *netsim.Cluster
	rt *Runtime
	me *MEContext
}

func newHarness(t *testing.T, p netsim.Params, me *MEContext) *harness {
	t.Helper()
	c, err := netsim.NewCluster(2, p)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(c, c.Nodes[1])
	c.Nodes[1].Recv = &meReceiver{rt: rt, me: me}
	return &harness{c: c, rt: rt, me: me}
}

func (h *harness) send(length int, data []byte, opts ...func(*netsim.Message)) *netsim.Message {
	m := &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: length, Data: data}
	for _, o := range opts {
		o(m)
	}
	h.c.Send(0, m)
	return m
}

func TestHeaderHandlerSeesHeaderFields(t *testing.T) {
	var got Header
	calls := 0
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC { got = h; calls++; return Proceed },
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(10000, nil, func(m *netsim.Message) {
		m.MatchBits = 0xabcd
		m.HdrData = 42
		m.Offset = 128
		m.UserHdr = []byte{1, 2, 3}
	})
	h.c.Eng.Run()
	if calls != 1 {
		t.Fatalf("header handler called %d times, want 1", calls)
	}
	if got.Length != 10000 || got.MatchBits != 0xabcd || got.HdrData != 42 ||
		got.Offset != 128 || got.Source != 0 || got.Target != 1 {
		t.Fatalf("header = %+v", got)
	}
	if !bytes.Equal(got.UserHdr, []byte{1, 2, 3}) {
		t.Fatalf("user header = %v", got.UserHdr)
	}
}

func TestPayloadHandlerPerPacketWithOffsets(t *testing.T) {
	var offsets []int
	var sizes []int
	me := &MEContext{Handlers: HandlerSet{
		Payload: func(c *Ctx, p Payload) PayloadRC {
			offsets = append(offsets, p.Offset)
			sizes = append(sizes, p.Size)
			return PayloadSuccess
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(9000, nil)
	h.c.Eng.Run()
	if len(offsets) != 3 {
		t.Fatalf("payload handler called %d times, want 3", len(offsets))
	}
	if offsets[0] != 0 || offsets[1] != 4096 || offsets[2] != 8192 {
		t.Fatalf("offsets = %v", offsets)
	}
	if sizes[2] != 9000-8192 {
		t.Fatalf("last packet size = %d", sizes[2])
	}
}

func TestPayloadHandlerSeesData(t *testing.T) {
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	me := &MEContext{Handlers: HandlerSet{
		Payload: func(c *Ctx, p Payload) PayloadRC {
			got = append(got, p.Data...)
			return PayloadSuccess
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(len(data), data)
	h.c.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("payload handler saw wrong bytes")
	}
}

func TestCompletionAfterAllPayloadHandlers(t *testing.T) {
	payloadCalls := 0
	completionCalls := 0
	me := &MEContext{Handlers: HandlerSet{
		Payload: func(c *Ctx, p Payload) PayloadRC { payloadCalls++; return PayloadSuccess },
		Completion: func(c *Ctx, dropped int, fc bool) CompletionRC {
			completionCalls++
			if payloadCalls != 3 {
				t.Errorf("completion before all payload handlers: %d", payloadCalls)
			}
			if dropped != 0 || fc {
				t.Errorf("dropped=%d fc=%v, want 0,false", dropped, fc)
			}
			return CompletionSuccess
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(3*4096, nil)
	h.c.Eng.Run()
	if completionCalls != 1 {
		t.Fatalf("completion handler called %d times", completionCalls)
	}
}

func TestDroppedBytesCounted(t *testing.T) {
	var gotDropped int
	me := &MEContext{Handlers: HandlerSet{
		Payload: func(c *Ctx, p Payload) PayloadRC {
			if p.Offset == 0 {
				return PayloadDrop
			}
			return PayloadSuccess
		},
		Completion: func(c *Ctx, dropped int, fc bool) CompletionRC {
			gotDropped = dropped
			return CompletionSuccess
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(2*4096, nil)
	h.c.Eng.Run()
	if gotDropped != 4096 {
		t.Fatalf("dropped = %d, want 4096", gotDropped)
	}
}

// TestHeaderDropCountsPayloadBytes pins the dropped-byte accounting for
// handler-requested drops: every payload byte of a message discarded by a
// header handler's Drop must be reported to the completion handler, while
// flow-control drops (counted whole at the header) must not double-count.
func TestHeaderDropCountsPayloadBytes(t *testing.T) {
	var gotDropped int
	var gotFC bool
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC { return Drop },
		Completion: func(c *Ctx, dropped int, fc bool) CompletionRC {
			gotDropped, gotFC = dropped, fc
			return CompletionSuccess
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(3*4096, nil)
	h.c.Eng.Run()
	if gotFC {
		t.Fatal("handler drop misreported as flow control")
	}
	if gotDropped != 3*4096 {
		t.Fatalf("dropped = %d, want %d", gotDropped, 3*4096)
	}
}

// TestFlowControlDropCountsMessageOnce checks a flow-controlled message
// reports exactly its length as dropped, not length plus per-packet counts.
func TestFlowControlDropCountsMessageOnce(t *testing.T) {
	p := netsim.Integrated()
	p.NumHPUs = 1
	p.HPUThreads = 1
	p.FlowDeadline = 100 * sim.Nanosecond
	var results []MessageResult
	me := &MEContext{
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				c.Charge(1000000) // 400us: saturate the only HPU context
				return Proceed
			},
		},
		Owner: completeFunc(func(now sim.Time, r MessageResult) { results = append(results, r) }),
	}
	h := newHarness(t, p, me)
	const size = 3 * 4096
	for i := 0; i < 4; i++ {
		h.send(size, nil)
	}
	h.c.Eng.Run()
	if len(results) != 4 {
		t.Fatalf("completions = %d, want 4", len(results))
	}
	sawFC := false
	for _, r := range results {
		if !r.FlowControl {
			continue
		}
		sawFC = true
		if r.DroppedBytes != size {
			t.Fatalf("flow-controlled message dropped %d bytes, want %d", r.DroppedBytes, size)
		}
	}
	if !sawFC {
		t.Fatal("no message hit flow control")
	}
}

func TestDefaultDepositWritesHostMemory(t *testing.T) {
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i)
	}
	host := make([]byte, 8192)
	var end sim.Time
	me := &MEContext{
		HostMem: BytesRegion(host),
		Owner: completeFunc(func(now sim.Time, r MessageResult) {
			end = now
			if r.Err != nil {
				t.Errorf("unexpected error: %v", r.Err)
			}
		}),
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(len(data), data, func(m *netsim.Message) { m.Offset = 100 })
	h.c.Eng.Run()
	if !bytes.Equal(host[100:100+len(data)], data) {
		t.Fatal("deposit did not land at ME offset")
	}
	if end == 0 {
		t.Fatal("completion never fired")
	}
	// Completion must be after DMA visibility of the last packet.
	minEnd := h.c.P.DMA.L
	if end < minEnd {
		t.Fatalf("completion at %v, before any DMA could finish", end)
	}
}

func TestHeaderDropDiscardsMessage(t *testing.T) {
	payloadCalls := 0
	host := make([]byte, 8192)
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header:  func(c *Ctx, h Header) HeaderRC { return Drop },
			Payload: func(c *Ctx, p Payload) PayloadRC { payloadCalls++; return PayloadSuccess },
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	data := bytes.Repeat([]byte{0xff}, 8192)
	h.send(len(data), data)
	h.c.Eng.Run()
	if payloadCalls != 0 {
		t.Fatalf("payload handler ran %d times after Drop", payloadCalls)
	}
	for _, b := range host {
		if b != 0 {
			t.Fatal("dropped message leaked into host memory")
		}
	}
}

func TestPendingPropagates(t *testing.T) {
	var res MessageResult
	me := &MEContext{
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC { return ProceedPending },
		},
		Owner: completeFunc(func(now sim.Time, r MessageResult) { res = r }),
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(64, nil)
	h.c.Eng.Run()
	if !res.Pending {
		t.Fatal("Pending flag lost")
	}
}

func TestHandlerErrorReported(t *testing.T) {
	var res MessageResult
	me := &MEContext{
		Handlers: HandlerSet{
			Payload: func(c *Ctx, p Payload) PayloadRC { return PayloadFail },
		},
		Owner: completeFunc(func(now sim.Time, r MessageResult) { res = r }),
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(64, nil)
	h.c.Eng.Run()
	if res.Err == nil {
		t.Fatal("handler FAIL not reported")
	}
}

func TestEchoViaPutFromDevice(t *testing.T) {
	// Node 1 echoes each packet back to node 0; node 0 collects bytes.
	p := netsim.Integrated()
	c, err := netsim.NewCluster(2, p)
	if err != nil {
		t.Fatal(err)
	}
	rt1 := NewRuntime(c, c.Nodes[1])
	me1 := &MEContext{Handlers: HandlerSet{
		Payload: func(ctx *Ctx, pl Payload) PayloadRC {
			if err := ctx.PutFromDevice(pl.Data, pl.Size, 0, 0, 99, int64(pl.Offset), 0); err != nil {
				t.Errorf("PutFromDevice: %v", err)
			}
			return PayloadSuccess
		},
	}}
	c.Nodes[1].Recv = &meReceiver{rt: rt1, me: me1}

	rt0 := NewRuntime(c, c.Nodes[0])
	echoed := make([]byte, 10000)
	me0 := &MEContext{HostMem: BytesRegion(echoed)}
	c.Nodes[0].Recv = &meReceiver{rt: rt0, me: me0}

	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	c.Send(0, &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: len(data), Data: data})
	c.Eng.Run()
	if !bytes.Equal(echoed, data) {
		t.Fatal("echoed data mismatch")
	}
}

func TestPutFromDeviceRejectsOversize(t *testing.T) {
	var gotErr error
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			gotErr = c.PutFromDevice(nil, 5000, 0, 0, 0, 0, 0)
			return Proceed
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	if gotErr == nil {
		t.Fatal("oversize PutFromDevice accepted")
	}
}

// TestNilBufferIsALength pins the rule DMAToHostB, DMAToHostNB,
// DMAToHostVec and PutFromDevice share for their buffer and length: a nil
// buffer is n bytes without data, taking exactly the time of n bytes and
// storing nothing, and a buffer that does not hold exactly n bytes records
// the action error and stores nothing.
func TestNilBufferIsALength(t *testing.T) {
	const n = 64
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i + 1)
	}
	vec := datatype.Vector{Blocksize: 16, Stride: 32, Count: 4}
	ops := []struct {
		name string
		call func(c *Ctx, local []byte, n int)
	}{
		{"DMAToHost", func(c *Ctx, local []byte, n int) { c.DMAToHostB(local, n, 8, MEHostMem) }},
		{"DMAToHostNB", func(c *Ctx, local []byte, n int) { h := c.DMAToHostNB(local, n, 8, MEHostMem); c.DMAWait(&h) }},
		{"DMAToHostVec", func(c *Ctx, local []byte, n int) { c.DMAToHostVec(local, vec, 0, n, 8, MEHostMem, 1) }},
		{"PutFromDevice", func(c *Ctx, local []byte, n int) { _ = c.PutFromDevice(local, n, 0, 0, 0, 0, 0) }},
	}
	// run makes the call from a header handler on a fresh rig whose host
	// region holds 0xee, and returns the handler clock after it, the
	// action error and whether the region still holds only 0xee.
	run := func(call func(c *Ctx, local []byte, n int), local []byte, n int) (sim.Time, string, bool) {
		host := bytes.Repeat([]byte{0xee}, 256)
		var now sim.Time
		var err error
		me := &MEContext{HostMem: BytesRegion(host), Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				call(c, local, n)
				now, err = c.Now(), c.Err()
				return Drop
			},
		}}
		h := newHarness(t, netsim.Integrated(), me)
		h.send(8, nil)
		h.c.Eng.Run()
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		return now, msg, bytes.Count(host, []byte{0xee}) == len(host)
	}
	for _, op := range ops {
		withData, _, _ := run(op.call, data, n)
		if now, err, untouched := run(op.call, nil, n); now != withData || err != "" || !untouched {
			t.Errorf("%s of %d bytes without data: clock %v (%v with data), error %q, region untouched %v",
				op.name, n, now, withData, err, untouched)
		}
		for _, local := range [][]byte{data[:n-1], append(data, 0)} {
			want := fmt.Sprintf("core: %s of %d bytes from a buffer of %d", op.name, n, len(local))
			if _, err, untouched := run(op.call, local, n); err != want || !untouched {
				t.Errorf("%s of %d bytes from %d: error %q, want %q; region untouched %v", op.name, n, len(local), err, want, untouched)
			}
		}
	}
}

func TestDMAFromHostReadsHostMemory(t *testing.T) {
	host := make([]byte, 1024)
	for i := range host {
		host[i] = byte(i ^ 0x5a)
	}
	var got [64]byte
	var dmaTime sim.Time
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				before := c.Now()
				c.DMAFromHostB(256, got[:], MEHostMem)
				dmaTime = c.Now() - before
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	if !bytes.Equal(got[:], host[256:320]) {
		t.Fatal("DMA read returned wrong bytes")
	}
	// Blocking read pays 2 L plus occupancy plus issue cost.
	min := 2 * h.c.P.DMA.L
	if dmaTime < min {
		t.Fatalf("blocking DMA read took %v, want >= %v", dmaTime, min)
	}
}

func TestDMAToHostWritesAndBlocksOnlyForInitiation(t *testing.T) {
	host := make([]byte, 1024)
	var blockTime sim.Time
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				before := c.Now()
				c.DMAToHostB([]byte{9, 8, 7}, 3, 10, MEHostMem)
				blockTime = c.Now() - before
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	if host[10] != 9 || host[12] != 7 {
		t.Fatal("DMA write content missing")
	}
	if blockTime >= h.c.P.DMA.L {
		t.Fatalf("posted write blocked %v, should be less than L=%v", blockTime, h.c.P.DMA.L)
	}
}

func TestDMAOutOfRangeSetsError(t *testing.T) {
	var res MessageResult
	me := &MEContext{
		HostMem: BytesRegion(make([]byte, 16)),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				c.DMAToHostB(nil, 64, 0, MEHostMem)
				if c.Err() == nil {
					t.Error("out-of-range DMA did not set error")
				}
				return Proceed
			},
		},
		Owner: completeFunc(func(now sim.Time, r MessageResult) { res = r }),
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	if res.Err == nil {
		t.Fatal("DMA range error not propagated to result")
	}
}

func TestNonblockingDMAAndWait(t *testing.T) {
	host := make([]byte, 256)
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				hdl := c.DMAToHostNB([]byte{1, 2, 3, 4}, 4, 0, MEHostMem)
				if c.DMATest(&hdl) {
					t.Error("write visible immediately; should take L")
				}
				c.DMAWait(&hdl)
				if !c.DMATest(&hdl) {
					t.Error("DMA incomplete after wait")
				}
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	if host[0] != 1 || host[3] != 4 {
		t.Fatal("NB DMA content missing")
	}
}

func TestHPUAtomics(t *testing.T) {
	mem := &HPUMem{Buf: make([]byte, 64)}
	me := &MEContext{
		State: mem,
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				if prev := c.FAdd(0, 5); prev != 0 {
					t.Errorf("FAdd prev = %d, want 0", prev)
				}
				if prev := c.FAdd(0, 3); prev != 5 {
					t.Errorf("FAdd prev = %d, want 5", prev)
				}
				if !c.CAS(0, 8, 100) {
					t.Error("CAS(8->100) should succeed")
				}
				if c.CAS(0, 8, 200) {
					t.Error("CAS with stale compare should fail")
				}
				if got := c.U64(0); got != 100 {
					t.Errorf("final value = %d, want 100", got)
				}
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
}

func TestDMAHostAtomics(t *testing.T) {
	host := make([]byte, 64)
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				if prev := c.DMAFetchAdd(0, 7, MEHostMem); prev != 0 {
					t.Errorf("DMAFetchAdd prev = %d", prev)
				}
				prev, swapped := c.DMACAS(0, 7, 50, MEHostMem)
				if prev != 7 || !swapped {
					t.Errorf("DMACAS = (%d,%v), want (7,true)", prev, swapped)
				}
				prev, swapped = c.DMACAS(0, 7, 99, MEHostMem)
				if prev != 50 || swapped {
					t.Errorf("stale DMACAS = (%d,%v), want (50,false)", prev, swapped)
				}
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
}

func TestCycleAccounting(t *testing.T) {
	var busy sim.Time
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			c.Charge(100)
			return Proceed
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
	busy = h.rt.HPUs.Server(0).Busy
	// start(2) + 100 + return(1) cycles at 400ps.
	want := sim.Time(103) * h.c.P.HPUCycle
	if busy != want {
		t.Fatalf("HPU busy %v, want %v", busy, want)
	}
	if h.rt.HandlerCycles != 103 {
		t.Fatalf("HandlerCycles = %d, want 103", h.rt.HandlerCycles)
	}
}

func TestChargePerByteMilliRoundsUp(t *testing.T) {
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			before := c.Cycles()
			c.ChargePerByteMilli(7, 125) // 0.875 cycles -> 1
			if c.Cycles()-before != 1 {
				t.Errorf("charged %d cycles, want 1", c.Cycles()-before)
			}
			c.ChargePerByteMilli(4096, 125) // 512 cycles
			return Proceed
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
}

func TestFlowControlDropsWhenHPUsSaturated(t *testing.T) {
	p := netsim.Integrated()
	p.NumHPUs = 1
	p.FlowDeadline = 100 * sim.Nanosecond
	var flowCtl bool
	me := &MEContext{
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				c.Charge(100000) // 40us on a 2.5GHz HPU: way past line rate
				return Proceed
			},
			Completion: func(c *Ctx, dropped int, fc bool) CompletionRC {
				if fc {
					flowCtl = true
				}
				return CompletionSuccess
			},
		},
	}
	h := newHarness(t, p, me)
	for i := 0; i < 8; i++ {
		h.send(64, nil)
	}
	h.c.Eng.Run()
	if !flowCtl {
		t.Fatal("flow control never triggered")
	}
	if h.rt.FlowControlEvents == 0 {
		t.Fatal("FlowControlEvents == 0")
	}
}

func TestHPUMemAllocationAccounting(t *testing.T) {
	p := netsim.Integrated()
	c, err := netsim.NewCluster(2, p)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(c, c.Nodes[1])
	rt.HPUMemCapacity = 1024
	m1, err := rt.AllocHPUMem(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AllocHPUMem(600); err == nil {
		t.Fatal("over-allocation accepted")
	}
	rt.FreeHPUMem(m1)
	if _, err := rt.AllocHPUMem(1024); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
	if _, err := rt.AllocHPUMem(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestTimelineRecordsHPUSpans(t *testing.T) {
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC { c.Charge(50); return Proceed },
	}}
	p := netsim.Integrated()
	c, err := netsim.NewCluster(2, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Rec = &timeline.Recorder{}
	rt := NewRuntime(c, c.Nodes[1])
	c.Nodes[1].Recv = &meReceiver{rt: rt, me: me}
	c.Send(0, &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: 8})
	c.Eng.Run()
	var buf bytes.Buffer
	c.Rec.RenderASCII(&buf, 60)
	out := buf.String()
	if !strings.Contains(out, "HPU 0") {
		t.Fatalf("timeline missing HPU lane:\n%s", out)
	}
}

// TestPooledRecordsComeBackZeroed checks each of a runtime's free lists: a
// record that was dirtied in every field and put back comes back zero.
func TestPooledRecordsComeBackZeroed(t *testing.T) {
	var rt Runtime
	for _, err := range []error{
		simtest.RecycledZero(&rt.msFree),
		simtest.RecycledZero(&rt.ctxFree),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}
