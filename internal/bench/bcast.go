package bench

import (
	"fmt"

	"repro/internal/handlers"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/portals"
	"repro/internal/sim"
)

// binomialKids lists rank's children in a binomial tree rooted at 0,
// carved from the Env's grow-only arena: a broadcast point builds one child
// list per rank (nprocs-1 entries in total across the tree), so a warm Env
// arms a whole tree without allocating. The lists are valid until the
// point's resetScratch. If the arena grows mid-point, earlier lists keep
// the old backing array — still valid, never aliased.
func (e *Env) binomialKids(rank, nprocs int) []int {
	start := len(e.kids)
	for half := nprocs / 2; half >= 1; half /= 2 {
		if rank%(half*2) == 0 && rank+half < nprocs {
			e.kids = append(e.kids, rank+half)
		}
	}
	return e.kids[start:len(e.kids):len(e.kids)]
}

// BroadcastTime measures a binomial-tree broadcast of size bytes to nprocs
// ranks (§4.4.3, Fig. 5a): the time until the last rank holds the data.
func BroadcastTime(p netsim.Params, v Variant, nprocs, size int) (sim.Time, error) {
	return broadcastTime(freshEnv(nil), p, v, nprocs, size)
}

func broadcastTime(e *Env, p netsim.Params, v Variant, nprocs, size int) (sim.Time, error) {
	// Deep trees queue many forwarded packets per HPU; give the portal a
	// generous flow budget so the measurement reflects latency, not drops.
	p.FlowDeadline = 10 * sim.Millisecond
	e.resetScratch()
	c, nis, err := e.cluster(nprocs, p, e.impair)
	if err != nil {
		return 0, err
	}
	var last sim.Time
	remaining := nprocs - 1
	var completionErr error
	markDone := func(at sim.Time) {
		if at > last {
			last = at
		}
		remaining--
	}

	for r := 0; r < nprocs; r++ {
		r := r
		if _, err := nis[r].PTAlloc(0, nil); err != nil {
			return 0, err
		}
		if r == 0 {
			continue // the root only sends
		}
		// Queues, counters, and entries come from per-NI / per-Env pools:
		// a broadcast point rebuilds its whole rig, so a warm sweep arms
		// trees without allocating.
		eq := nis[r].NewEQ()
		ct := nis[r].NewCT()
		me := e.allocME()
		me.MatchBits, me.EQ, me.CT = 7, eq, ct
		children := e.binomialKids(r, nprocs)
		switch v {
		case RDMA:
			cpu := hostsim.New(c, r, noise.None())
			got := 0
			eq.OnEvent(func(ev portals.Event) {
				got += ev.Length
				if ev.Length == 0 {
					got += size
				}
				if got < size {
					return
				}
				t := cpu.PollMatch(ev.At)
				for _, child := range children {
					var err error
					t, err = nis[r].Put(t, portals.PutArgs{
						Length: size, Target: child, PTIndex: 0, MatchBits: 7,
					})
					if err != nil {
						completionErr = err
					}
				}
				markDone(ev.At)
			})
		case P4:
			for _, child := range children {
				if err := nis[r].ArmTriggeredPut(portals.PutArgs{
					Length: size, Target: child, PTIndex: 0, MatchBits: 7,
				}, ct, 1); err != nil {
					return 0, err
				}
			}
			got := 0
			eq.OnEvent(func(ev portals.Event) {
				got += ev.Length
				if ev.Length == 0 {
					got += size
				}
				if got >= size {
					markDone(ev.At)
				}
			})
		case SpinStore, SpinStream:
			maxSize := p.MTU
			if v == SpinStream {
				maxSize = 1 << 30
			}
			mem, err := nis[r].RT.AllocHPUMem(handlers.BcastStateBytes)
			if err != nil {
				return 0, err
			}
			me.HPUMem = mem
			// Handlers deposit each rank's copy via DMA, so the ME needs
			// a host region for the write timing to be charged; a
			// timing-only one holds no bytes.
			me.Length = size
			me.Handlers = handlers.Bcast(handlers.BcastConfig{
				MyRank: r, NProcs: nprocs, PT: 0, Bits: 7,
				Streaming: true, MaxSize: maxSize,
			})
			got := 0
			eq.OnEvent(func(ev portals.Event) {
				got += ev.Length
				if ev.Length == 0 {
					got += size
				}
				if got >= size {
					markDone(ev.At)
				}
			})
		}
		if err := nis[r].MEAppend(0, me, portals.PriorityList); err != nil {
			return 0, err
		}
	}

	// Root: sequential host posts to its binomial children (each pays o).
	var t sim.Time
	for _, child := range e.binomialKids(0, nprocs) {
		var err error
		t, err = nis[0].Put(t, portals.PutArgs{
			Length: size, Target: child, PTIndex: 0, MatchBits: 7,
		})
		if err != nil {
			return 0, err
		}
	}
	c.Eng.Run()
	if completionErr != nil {
		return 0, completionErr
	}
	if remaining > 0 {
		return 0, fmt.Errorf("bench: broadcast %v P=%d size=%d: %d ranks never completed", v, nprocs, size, remaining)
	}
	return last, nil
}

// Fig5aProcs is the paper's process-count sweep.
func Fig5aProcs() []int { return []int{4, 16, 64, 256, 1024} }

// fig5aSweep lays out Figure 5a: broadcast latency on the discrete NIC for
// 8 B and 64 KiB messages.
func fig5aSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:    "fig5a",
		Title: "Binomial-tree broadcast latency, discrete NIC (us)",
		Header: []string{"procs",
			"RDMA(8B)", "P4(8B)", "sPIN(8B)",
			"RDMA(64KiB)", "P4(64KiB)", "sPIN(64KiB)"},
		Notes: "paper: sPIN fastest at both sizes; gap grows with message size (streaming pipeline)",
	})
	procs := Fig5aProcs()
	if scale > 1 && len(procs) > 3 {
		procs = []int{4, 64, 1024}
	}
	p := netsim.Discrete()
	for _, n := range procs {
		s.Row(fmt.Sprint(n), func(e *Env) ([]string, error) {
			row := []string{fmt.Sprintf("%d", n)}
			for _, size := range []int{8, 64 << 10} {
				for _, v := range []Variant{RDMA, P4, SpinStream} {
					d, err := broadcastTime(e, p, v, n, size)
					if err != nil {
						return nil, err
					}
					row = append(row, us(int64(d)))
				}
			}
			// Columns already land in header order: sizes grouped outermost.
			return row, nil
		})
	}
	return s
}

// bcastStoreSweep lays out the §4.4.3 store-vs-stream comparison: the
// paper reports store-and-forward within 5% of streaming for single-packet
// messages and of Portals 4 for multi-packet messages.
func bcastStoreSweep(int) *Sweep {
	s := NewSweep(&Table{
		ID:     "bcast-store",
		Title:  "Broadcast store-and-forward vs streaming (64 ranks, discrete, us)",
		Header: []string{"bytes", "P4", "sPIN(store)", "sPIN(stream)", "store_vs_ref"},
	})
	p := netsim.Discrete()
	for _, size := range []int{8, 512, 4096, 65536} {
		s.Row(fmt.Sprint(size), func(e *Env) ([]string, error) {
			p4, err := broadcastTime(e, p, P4, 64, size)
			if err != nil {
				return nil, err
			}
			store, err := broadcastTime(e, p, SpinStore, 64, size)
			if err != nil {
				return nil, err
			}
			stream, err := broadcastTime(e, p, SpinStream, 64, size)
			if err != nil {
				return nil, err
			}
			// Reference: streaming for single-packet, P4 for multi-packet.
			ref := stream
			if size > p.MTU {
				ref = p4
			}
			return []string{fmt.Sprintf("%d", size), us(int64(p4)), us(int64(store)), us(int64(stream)),
				fmt.Sprintf("%+.1f%%", 100*(float64(store)/float64(ref)-1))}, nil
		})
	}
	return s
}
