package bench

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// RaidUpdateTime measures one client update of size bytes striped across
// the four data servers of a new RAID-5 service (internal/raidsim), until
// the client has collected every ack — after the parity node is updated
// (Fig. 7c).
func RaidUpdateTime(p netsim.Params, spin bool, size int) (sim.Time, error) {
	return raidUpdateTime(freshEnv(nil), p, spin, size)
}

// raidUpdateTime is one fig7c update on the Env's RAID system for (p,
// spin), under the Env's fault model.
func raidUpdateTime(e *Env, p netsim.Params, spin bool, size int) (sim.Time, error) {
	sys, err := e.raidSystem(p, spin, e.impair)
	if err != nil {
		return 0, err
	}
	return sys.Write(0, size)
}

// fig7cSweep lays out Figure 7c: RAID-5 update time vs transfer size for
// both NIC types. Every update runs on the Env's raidsim cache — one
// service per (NIC type, protocol), Reset between updates.
func fig7cSweep(scale int) *Sweep {
	s := NewSweep(&Table{
		ID:     "fig7c",
		Title:  "Distributed RAID-5 update time (us)",
		Header: []string{"bytes", "RDMA/P4(int)", "sPIN(int)", "RDMA/P4(dis)", "sPIN(dis)"},
		Notes:  "paper: comparable for small transfers, sPIN much faster for large blocks",
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
			for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
				for _, spinMode := range []bool{false, true} {
					d, err := raidUpdateTime(e, p, spinMode, size)
					if err != nil {
						return nil, err
					}
					row = append(row, us(int64(d)))
				}
			}
			return row, nil
		})
	}
	return s
}
