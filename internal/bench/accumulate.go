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

// AccumulateTime measures one remote accumulate of size bytes (§4.4.2,
// Fig. 3d): the time until the destination array in host memory holds the
// elementwise double-complex product.
//
//   - RDMA/P4: the NIC deposits into a bounce buffer; the host CPU polls,
//     then reads both arrays and writes the result back (two N reads and
//     two N writes, as the paper counts).
//   - sPIN: each packet's handler DMAs the destination slice up, multiplies,
//     and writes it back; packets pipeline across HPUs and the bus.
func AccumulateTime(p netsim.Params, spin bool, size int) (sim.Time, error) {
	return accumulateTime(freshEnv(nil), p, spin, size)
}

func accumulateTime(e *Env, p netsim.Params, spin bool, size int) (sim.Time, error) {
	// Saturating sweeps would otherwise trip flow control; these
	// experiments measure completion time, not drop behaviour.
	p.FlowDeadline = 100 * sim.Millisecond
	c, nis, err := e.cluster(farPeer+1, p, e.impair)
	if err != nil {
		return 0, err
	}
	if _, err := nis[farPeer].PTAlloc(0, nil); err != nil {
		return 0, err
	}
	eq := portals.NewEQ(c.Eng)
	var done sim.Time
	me := &portals.ME{MatchBits: 1, EQ: eq}
	if spin {
		mem, err := nis[farPeer].RT.AllocHPUMem(handlers.AccumulateStateBytes)
		if err != nil {
			return 0, err
		}
		me.Length = size
		me.HPUMem = mem
		me.Handlers = handlers.Accumulate(handlers.AccumulateConfig{})
		eq.OnEvent(func(ev portals.Event) {
			if done == 0 {
				done = ev.At
			}
		})
	} else {
		cpu := hostsim.New(c, farPeer, noise.None())
		eq.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut || done != 0 {
				return
			}
			t := cpu.PollMatch(ev.At)
			done = cpu.KernelPasses(t, size, 4)
		})
	}
	if err := nis[farPeer].MEAppend(0, me, portals.PriorityList); err != nil {
		return 0, err
	}
	if _, err := nis[0].Put(0, portals.PutArgs{
		Length: size, Target: farPeer, PTIndex: 0, MatchBits: 1,
	}); err != nil {
		return 0, err
	}
	c.Eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("bench: accumulate of %d B never completed", size)
	}
	return done, nil
}

// fig3dSweep lays out Figure 3d: remote accumulate completion time for
// both NIC types.
func fig3dSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:     "fig3d",
		Title:  "Remote accumulate completion time (us)",
		Header: []string{"bytes", "RDMA/P4(int)", "sPIN(int)", "RDMA/P4(dis)", "sPIN(dis)"},
		Notes:  "paper: sPIN slower for small (DMA round trip), faster for large (pipelining)",
	})
	if scale < 1 {
		scale = 1
	}
	sizes := Fig3Sizes()
	for i, size := range sizes {
		if size < 16 {
			continue // one complex element minimum
		}
		if i%scale != 0 && size != sizes[len(sizes)-1] {
			continue
		}
		s.Row(fmt.Sprint(size), func(e *Env) ([]string, error) {
			row := []string{fmt.Sprintf("%d", size)}
			for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
				for _, spin := range []bool{false, true} {
					d, err := accumulateTime(e, p, spin, size)
					if err != nil {
						return nil, err
					}
					row = append(row, us(int64(d)))
				}
			}
			// Reorder: int-RDMA, int-sPIN, dis-RDMA, dis-sPIN already matches.
			return row, nil
		})
	}
	return s
}
