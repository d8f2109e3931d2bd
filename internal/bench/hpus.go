package bench

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// HPUsNeeded evaluates the paper's Little's-law model (§4.4.2, Fig. 4):
// with handler time T and packet size s, the NIC needs T·∆ HPUs where the
// arrival rate ∆ = min{1/g, 1/(G·s)} — g-bound for small packets, G-bound
// (line rate) beyond s = g/G.
func HPUsNeeded(p netsim.Params, T sim.Time, s int) int {
	interarrival := p.PacketOccupancy(s) // max(g, G*s)
	n := (int64(T) + int64(interarrival) - 1) / int64(interarrival)
	if n < 1 {
		n = 1
	}
	return int(n)
}

// GBoundCrossover returns the packet size where the bottleneck shifts from
// message rate to bandwidth (g/G, 335 B in the paper).
func GBoundCrossover(p netsim.Params) int {
	return int(int64(p.Gap) * 1000 / p.GFemtoPerByte)
}

// MaxHandlerTimeSmall is T̂s: the longest handler that still sustains any
// packet size with k HPUs (k·g; 53 ns for 8 HPUs).
func MaxHandlerTimeSmall(p netsim.Params, k int) sim.Time {
	return sim.Time(k) * p.Gap
}

// MaxHandlerTimeLine is T̂l(s): the longest handler that sustains line rate
// at packet size s with k HPUs (k·G·s; 650 ns for 8 HPUs at 4 KiB).
func MaxHandlerTimeLine(p netsim.Params, k int, s int) sim.Time {
	return sim.Time(k) * p.GBytes(s)
}

// fig4Sweep lays out Figure 4: HPUs needed to guarantee line rate as a
// function of packet size, for the paper's four handler times.
func fig4Sweep(int) *Sweep {
	p := netsim.Integrated()
	s := NewSweep(&Table{
		ID:     "fig4",
		Title:  "HPUs needed for line rate vs packet size",
		Header: []string{"pkt_bytes", "T=100ns", "T=200ns", "T=500ns", "T=1000ns"},
		Notes: fmt.Sprintf(
			"g-bound/G-bound crossover at %d B (paper: 335); T̂s(8 HPUs)=%.1fns (paper: 53); T̂l(8,4096)=%.0fns (paper: 650)",
			GBoundCrossover(p),
			MaxHandlerTimeSmall(p, 8).Nanoseconds(),
			MaxHandlerTimeLine(p, 8, 4096).Nanoseconds()),
	})
	times := []sim.Time{100 * sim.Nanosecond, 200 * sim.Nanosecond, 500 * sim.Nanosecond, 1000 * sim.Nanosecond}
	for sz := 64; sz <= 4096; sz += 64 {
		s.Row(fmt.Sprint(sz), func(*Env) ([]string, error) {
			row := []string{fmt.Sprintf("%d", sz)}
			for _, T := range times {
				row = append(row, fmt.Sprintf("%d", HPUsNeeded(p, T, sz)))
			}
			return row, nil
		})
	}
	return s
}
