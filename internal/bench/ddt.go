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

// DDTTotalBytes is the fixed transfer of Fig. 7a: a 4 MiB message.
const DDTTotalBytes = 4 << 20

// StridedReceiveTime measures unpacking a DDTTotalBytes message into a
// strided layout with the given blocksize and stride = 2×blocksize
// (§5.2, Fig. 7a).
//
//   - RDMA: contiguous deposit, then the host CPU performs the strided
//     unpack copy at its strided-copy bandwidth.
//   - sPIN: datatype payload handlers compute block offsets per packet and
//     DMA each block directly to its final location; small blocks are
//     dominated by the per-transaction DMA overhead.
func StridedReceiveTime(p netsim.Params, spin bool, blocksize int) (sim.Time, error) {
	return stridedReceiveTime(freshEnv(nil), p, spin, blocksize)
}

func stridedReceiveTime(e *Env, p netsim.Params, spin bool, blocksize int) (sim.Time, error) {
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
		mem, err := nis[farPeer].RT.AllocHPUMem(handlers.DDTStateBytes)
		if err != nil {
			return 0, err
		}
		handlers.InitDDTState(mem.Buf, handlers.DDTConfig{Blocksize: blocksize, Gap: blocksize})
		// Timing-only deposit target: the 8 MiB landing area bounds and
		// charges every DMA but holds no bytes.
		me.Length = 2*DDTTotalBytes + blocksize
		me.HPUMem = mem
		me.Handlers = handlers.DDTVector()
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
			done = cpu.StridedCopy(t, DDTTotalBytes, blocksize)
		})
	}
	if err := nis[farPeer].MEAppend(0, me, portals.PriorityList); err != nil {
		return 0, err
	}
	if _, err := nis[0].Put(0, portals.PutArgs{
		Length: DDTTotalBytes, Target: farPeer, PTIndex: 0, MatchBits: 1,
	}); err != nil {
		return 0, err
	}
	c.Eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("bench: strided receive blocksize %d never completed", blocksize)
	}
	return done, nil
}

// Fig7aBlocksizes is the paper's blocksize sweep: 16 B to 256 KiB.
func Fig7aBlocksizes() []int {
	var out []int
	for b := 16; b <= 1<<18; b *= 2 {
		out = append(out, b)
	}
	return out
}

// fig7aSweep lays out Figure 7a: 4 MiB strided receive, completion time
// and achieved bandwidth vs blocksize. Both NIC types produce
// near-identical curves (the paper plots them together); we emit the
// integrated one plus a discrete spot check in the notes.
func fig7aSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:     "fig7a",
		Title:  "Strided receive of 4 MiB, stride = 2x blocksize",
		Header: []string{"blocksize", "RDMA_us", "RDMA_GiB/s", "sPIN_us", "sPIN_GiB/s"},
		Notes:  "paper: RDMA 8.7-11.4 GiB/s rising with blocksize; sPIN crosses over near 256 B and reaches ~46 GiB/s",
	})
	if scale < 1 {
		scale = 1
	}
	p := netsim.Integrated()
	sizes := Fig7aBlocksizes()
	for i, b := range sizes {
		if i%scale != 0 && b != sizes[len(sizes)-1] {
			continue
		}
		s.Row(fmt.Sprint(b), func(e *Env) ([]string, error) {
			rdma, err := stridedReceiveTime(e, p, false, b)
			if err != nil {
				return nil, err
			}
			spin, err := stridedReceiveTime(e, p, true, b)
			if err != nil {
				return nil, err
			}
			return []string{fmt.Sprintf("%d", b),
				us(int64(rdma)), gibps(DDTTotalBytes, int64(rdma)),
				us(int64(spin)), gibps(DDTTotalBytes, int64(spin))}, nil
		})
	}
	return s
}
