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

// Variant enumerates the systems compared throughout the evaluation.
type Variant int

const (
	// RDMA is the CPU-driven baseline: completions are polled, matching
	// and replies run on the host.
	RDMA Variant = iota
	// P4 is plain Portals 4: pre-armed triggered operations reply from
	// the NIC, data path through host memory.
	P4
	// SpinStore is sPIN with store-and-forward handlers: single-packet
	// replies from the device, larger ones from host memory.
	SpinStore
	// SpinStream is sPIN with streaming handlers: every packet is
	// answered from the device; large messages never touch host memory.
	SpinStream
)

func (v Variant) String() string {
	switch v {
	case RDMA:
		return "RDMA"
	case P4:
		return "P4"
	case SpinStore:
		return "sPIN(store)"
	case SpinStream:
		return "sPIN(stream)"
	}
	return "?"
}

const (
	pingBits = 0x1
	pongBits = 0x2
)

// farPeer is the responder rank: the first host of the second pod, so the
// measured path crosses the full fat tree (5 switches, 450.4 ns) like the
// paper's LogP discussion assumes.
const farPeer = 324

// PingPongHalfRTT runs one ping-pong of the given size between two
// neighbor ranks and returns the half round-trip time (§4.4.1).
func PingPongHalfRTT(p netsim.Params, v Variant, size int, nz *noise.Model) (sim.Time, error) {
	return pingPongHalfRTT(freshEnv(nil), p, v, size, nz)
}

// pingPongHalfRTT is PingPongHalfRTT on a sweep environment, which supplies
// the (reset) cluster, so sweeps skip per-point construction.
func pingPongHalfRTT(e *Env, p netsim.Params, v Variant, size int, nz *noise.Model) (sim.Time, error) {
	// Saturating sweeps would otherwise trip flow control; these
	// experiments measure completion time, not drop behaviour.
	p.FlowDeadline = 100 * sim.Millisecond
	c, nis, err := e.cluster(farPeer+1, p, e.impair)
	if err != nil {
		return 0, err
	}

	// Responder.
	if _, err := nis[farPeer].PTAlloc(0, nil); err != nil {
		return 0, err
	}
	respEQ := portals.NewEQ(c.Eng)
	respCT := portals.NewCT(c.Eng)
	respME := &portals.ME{MatchBits: pingBits, EQ: respEQ, CT: respCT}
	pong := portals.PutArgs{
		Length: size, Target: 0, PTIndex: 0, MatchBits: pongBits,
	}
	switch v {
	case RDMA:
		cpu := hostsim.New(c, farPeer, nz)
		respEQ.OnEvent(func(ev portals.Event) {
			if ev.Type != portals.EventPut {
				return
			}
			t := cpu.PollMatch(ev.At)
			if _, err := nis[farPeer].Put(t, pong); err != nil {
				panic(err)
			}
		})
	case P4:
		if err := nis[farPeer].ArmTriggeredPut(pong, respCT, 1); err != nil {
			return 0, err
		}
	case SpinStore, SpinStream:
		maxSize := p.MTU
		if v == SpinStream {
			maxSize = 1 << 30
		}
		mem, err := nis[farPeer].RT.AllocHPUMem(handlers.PingPongStateBytes)
		if err != nil {
			return 0, err
		}
		respME.HPUMem = mem
		// Store mode replies large messages from host memory, so the ME
		// needs a deposit region; a timing-only one holds no bytes.
		respME.Length = size
		respME.Handlers = handlers.PingPong(handlers.PingPongConfig{
			ReplyPT: 0, ReplyBits: pongBits, Streaming: true, MaxSize: maxSize,
		})
	}
	if err := nis[farPeer].MEAppend(0, respME, portals.PriorityList); err != nil {
		return 0, err
	}

	// Initiator (rank 0): collect the pong, which may arrive as several
	// single-packet messages in streaming mode.
	if _, err := nis[0].PTAlloc(0, nil); err != nil {
		return 0, err
	}
	doneEQ := portals.NewEQ(c.Eng)
	var done sim.Time
	gotBytes := 0
	expect := size
	if expect == 0 {
		expect = 1 // zero-byte control message still completes once
	}
	doneEQ.OnEvent(func(ev portals.Event) {
		gotBytes += ev.Length
		if ev.Length == 0 {
			gotBytes++
		}
		if gotBytes >= expect && done == 0 {
			done = ev.At
		}
	})
	if err := nis[0].MEAppend(0, &portals.ME{MatchBits: pongBits, EQ: doneEQ, ManageLocal: true}, portals.PriorityList); err != nil {
		return 0, err
	}

	if _, err := nis[0].Put(0, portals.PutArgs{
		Length: size, Target: farPeer, PTIndex: 0, MatchBits: pingBits,
	}); err != nil {
		return 0, err
	}
	c.Eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("bench: %v ping-pong of %d B never completed", v, size)
	}
	return done / 2, nil
}

// Fig3Sizes is the paper's message-size sweep (4 B to 256 KiB).
func Fig3Sizes() []int {
	var sizes []int
	for s := 4; s <= 1<<18; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// fig3bSweep lays out Figure 3b (ping-pong, integrated NIC) and fig3cSweep
// Figure 3c (discrete NIC). The scale parameter subsamples the sweep for
// quick runs (1 = full).
func fig3bSweep(scale int) *Sweep { return fig3(netsim.Integrated(), "fig3b", "integrated", scale) }
func fig3cSweep(scale int) *Sweep { return fig3(netsim.Discrete(), "fig3c", "discrete", scale) }

func fig3(p netsim.Params, id, kind string, scale int) *Sweep {
	s := NewSweep(&Table{
		ID:     id,
		Title:  "Ping-pong half round-trip time, " + kind + " NIC (us)",
		Header: []string{"bytes", "RDMA", "P4", "sPIN(store)", "sPIN(stream)"},
		Notes:  "paper: sPIN < P4 < RDMA for small messages; stream wins for large",
	})
	if scale < 1 {
		scale = 1
	}
	sizes := Fig3Sizes()
	for i, size := range sizes {
		if i%scale != 0 && size != sizes[len(sizes)-1] {
			continue
		}
		s.Row(fmt.Sprint(size), func(e *Env) ([]string, error) {
			row := []string{fmt.Sprintf("%d", size)}
			for _, v := range []Variant{RDMA, P4, SpinStore, SpinStream} {
				half, err := pingPongHalfRTT(e, p, v, size, noise.None())
				if err != nil {
					return nil, err
				}
				row = append(row, us(int64(half)))
			}
			return row, nil
		})
	}
	return s
}

// noiseSweep lays out the noise-sensitivity ablation (§5.1's motivation):
// ping-pong under 1 kHz / 25 us OS noise. Only the CPU-driven variant
// degrades.
func noiseSweep(int) *Sweep {
	s := NewSweep(&Table{
		ID:     "noise",
		Title:  "8 KiB ping-pong half RTT with and without OS noise (us)",
		Header: []string{"variant", "quiet", "noisy", "slowdown"},
		Notes:  "offloaded variants are noise-immune (§4.4.1, §5.1)",
	})
	for _, v := range []Variant{RDMA, P4, SpinStream} {
		s.Row(v.String(), func(e *Env) ([]string, error) {
			quiet, err := pingPongHalfRTT(e, netsim.Discrete(), v, 8192, noise.None())
			if err != nil {
				return nil, err
			}
			// Worst-case alignment: every CPU step lands in a detour window.
			noisy := quiet
			for trial := 0; trial < 8; trial++ {
				m := &noise.Model{
					Period:   sim.Millisecond,
					Duration: 25 * sim.Microsecond,
					Phase:    sim.Time(trial) * 125 * sim.Microsecond,
				}
				got, err := pingPongHalfRTT(e, netsim.Discrete(), v, 8192, m)
				if err != nil {
					return nil, err
				}
				if got > noisy {
					noisy = got
				}
			}
			return []string{v.String(), us(int64(quiet)), us(int64(noisy)),
				fmt.Sprintf("%.2fx", float64(noisy)/float64(quiet))}, nil
		})
	}
	return s
}
