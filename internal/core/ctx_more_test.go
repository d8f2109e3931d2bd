package core

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestSteerToRedirectsDeposit(t *testing.T) {
	host := make([]byte, 4096)
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Header: func(c *Ctx, h Header) HeaderRC {
				c.SteerTo(1024) // KV-store style steering (§5.4)
				return Proceed
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	data := []byte{9, 9, 9, 9}
	h.send(len(data), data, func(m *netsim.Message) { m.Offset = 0 })
	h.c.Eng.Run()
	if host[0] != 0 || host[1024] != 9 {
		t.Fatal("SteerTo did not redirect the deposit")
	}
}

func TestMyHPUAndNumHPUs(t *testing.T) {
	p := netsim.Integrated()
	var num, my int
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			num = c.NumHPUs()
			my = c.MyHPU()
			return Proceed
		},
	}}
	h := newHarness(t, p, me)
	h.send(8, nil)
	h.c.Eng.Run()
	if num != p.NumHPUs*p.HPUThreads {
		t.Fatalf("NumHPUs = %d, want %d contexts", num, p.NumHPUs*p.HPUThreads)
	}
	if my < 0 || my >= num {
		t.Fatalf("MyHPU = %d outside [0,%d)", my, num)
	}
}

func TestYieldChargesOneCycle(t *testing.T) {
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			before := c.Cycles()
			c.Yield()
			if c.Cycles()-before != CostYield {
				t.Errorf("yield charged %d cycles", c.Cycles()-before)
			}
			return Proceed
		},
	}}
	h := newHarness(t, netsim.Integrated(), me)
	h.send(8, nil)
	h.c.Eng.Run()
}

func TestMTUAccessor(t *testing.T) {
	p := netsim.Integrated()
	me := &MEContext{Handlers: HandlerSet{
		Header: func(c *Ctx, h Header) HeaderRC {
			if c.MTU() != p.MTU {
				t.Errorf("MTU = %d", c.MTU())
			}
			return Proceed
		},
	}}
	h := newHarness(t, p, me)
	h.send(8, nil)
	h.c.Eng.Run()
}

func TestIssueContentionSerializesCompute(t *testing.T) {
	// Two concurrent compute-heavy handlers on a 1-core/2-thread NIC:
	// contexts admit both, but the issue unit serializes their cycles.
	p := netsim.Integrated()
	p.NumHPUs = 1
	p.HPUThreads = 2
	var ends []sim.Time
	me := &MEContext{Handlers: HandlerSet{
		Payload: func(c *Ctx, pl Payload) PayloadRC {
			c.Charge(2500) // 1 us of compute
			ends = append(ends, c.Now())
			return PayloadSuccess
		},
	}}
	h := newHarness(t, p, me)
	h.send(2*4096, nil) // two packets, arriving 82 ns apart
	h.c.Eng.Run()
	if len(ends) != 2 {
		t.Fatalf("%d handler runs", len(ends))
	}
	gap := ends[1] - ends[0]
	// With a single issue unit the second handler finishes a full
	// compute quantum after the first, not an arrival gap after it.
	if gap < 900*sim.Nanosecond {
		t.Fatalf("compute not serialized: gap %v", gap)
	}
}

func TestDMAWaitsOverlapAcrossContexts(t *testing.T) {
	// Two handlers blocked on DMA reads overlap: completion times differ
	// by the bus occupancy, not the full read latency.
	p := netsim.Discrete()
	var ends []sim.Time
	host := make([]byte, 1<<20)
	me := &MEContext{
		HostMem: BytesRegion(host),
		Handlers: HandlerSet{
			Payload: func(c *Ctx, pl Payload) PayloadRC {
				buf := make([]byte, pl.Size)
				c.DMAFromHostB(int64(pl.Offset), buf, MEHostMem)
				ends = append(ends, c.Now())
				return PayloadSuccess
			},
		},
	}
	h := newHarness(t, p, me)
	h.send(2*4096, nil)
	h.c.Eng.Run()
	gap := ends[1] - ends[0]
	// Full blocking read is 2*250ns + 64ns; overlapped handlers should
	// be spaced by roughly the arrival gap + occupancy, far below that.
	if gap > 300*sim.Nanosecond {
		t.Fatalf("DMA reads did not overlap: gap %v", gap)
	}
}

func TestCompletionWaitsForDepositVisibility(t *testing.T) {
	// The ME completion must not be signalled before the default
	// deposit's DMA is visible in host memory.
	p := netsim.Discrete()
	var done sim.Time
	me := &MEContext{
		HostMem: BytesRegion(make([]byte, 8192)),
		Owner:   completeFunc(func(now sim.Time, r MessageResult) { done = now }),
	}
	h := newHarness(t, p, me)
	h.send(4096, nil)
	h.c.Eng.Run()
	if done < p.DMA.L {
		t.Fatalf("completion at %v, before DMA visibility (L=%v)", done, p.DMA.L)
	}
}

func TestMultipleMessagesInterleave(t *testing.T) {
	// Several concurrent messages on one ME: per-message state must not
	// leak between them.
	var completions int
	var dropped int
	me := &MEContext{
		Handlers: HandlerSet{
			Payload: func(c *Ctx, p Payload) PayloadRC {
				if p.Offset == 0 {
					return PayloadDrop
				}
				return PayloadSuccess
			},
			Completion: func(c *Ctx, d int, fc bool) CompletionRC {
				completions++
				dropped += d
				return CompletionSuccess
			},
		},
	}
	h := newHarness(t, netsim.Integrated(), me)
	for i := 0; i < 5; i++ {
		h.send(2*4096, nil)
	}
	h.c.Eng.Run()
	if completions != 5 {
		t.Fatalf("completions = %d", completions)
	}
	if dropped != 5*4096 {
		t.Fatalf("dropped = %d, want %d", dropped, 5*4096)
	}
	if h.rt.MessagesProcessed != 5 {
		t.Fatalf("MessagesProcessed = %d", h.rt.MessagesProcessed)
	}
}

func TestHandlerSetEmpty(t *testing.T) {
	if !(HandlerSet{}).Empty() {
		t.Fatal("zero HandlerSet not empty")
	}
	hs := HandlerSet{Header: func(c *Ctx, h Header) HeaderRC { return Proceed }}
	if hs.Empty() {
		t.Fatal("non-zero HandlerSet reported empty")
	}
}

func TestReturnCodeHelpers(t *testing.T) {
	for rc, want := range map[HeaderRC]bool{
		Drop: false, DropPending: true, ProcessData: false,
		ProcessDataPending: true, Proceed: false, ProceedPending: true,
	} {
		if rc.Pending() != want {
			t.Errorf("%d.Pending() = %v", rc, rc.Pending())
		}
	}
	if !HeaderSegv.IsError() || !HeaderFail.IsError() || Proceed.IsError() {
		t.Fatal("IsError classification wrong")
	}
}
