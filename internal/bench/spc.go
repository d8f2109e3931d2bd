package bench

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spctrace"
)

// SPCOpsPerTrace is the number of requests replayed per trace. The paper
// replays the full SPC traces; the improvement percentage is stable after
// a few hundred requests of the same mixture.
const SPCOpsPerTrace = 400

// replayTrace runs one SPC trace on the Env's unimpaired RAID system for
// (p, spin) and returns the total processing time: the storage service has
// no recovery layer, so a lost packet would only wedge a replay.
func replayTrace(e *Env, p netsim.Params, spin bool, recs []spctrace.Record) (sim.Time, error) {
	sys, err := e.raidSystem(p, spin, nil)
	if err != nil {
		return 0, err
	}
	return sys.Replay(recs)
}

// spcSweep lays out the §5.3 trace study: processing-time improvement of
// sPIN over RDMA for the five SPC traces, on both NIC types. The paper
// reports improvements between 2.8% and 43.7%, with the largest on the
// financial (OLTP) traces with the integrated NIC.
//
// There is one point per trace. The trace records are generated
// once at build time and shared read-only by the replay points; the RAID
// systems come from the Env's raidsim cache — one service per (NIC type,
// protocol), Reset between traces — so the sweep builds four systems
// instead of twenty.
func spcSweep(int) *Sweep {
	s := NewSweep(&Table{
		ID:    "spc",
		Title: fmt.Sprintf("SPC trace replay on RAID-5 (%d requests per trace, ms)", SPCOpsPerTrace),
		Header: []string{"trace", "writes",
			"RDMA(int)", "sPIN(int)", "improv(int)",
			"RDMA(dis)", "sPIN(dis)", "improv(dis)"},
		Notes: "paper: improvements 2.8%..43.7%, largest for financial traces on the integrated NIC",
	})
	traces := spctrace.Suite(SPCOpsPerTrace)
	for _, name := range spctrace.SuiteNames() {
		recs := traces[name]
		s.Row(name, func(e *Env) ([]string, error) {
			stats := spctrace.Summarize(recs)
			row := []string{name, fmt.Sprintf("%.0f%%", 100*stats.WriteFraction)}
			for _, p := range []netsim.Params{netsim.Integrated(), netsim.Discrete()} {
				base, err := replayTrace(e, p, false, recs)
				if err != nil {
					return nil, err
				}
				spin, err := replayTrace(e, p, true, recs)
				if err != nil {
					return nil, err
				}
				row = append(row,
					fmt.Sprintf("%.3f", base.Seconds()*1e3),
					fmt.Sprintf("%.3f", spin.Seconds()*1e3),
					fmt.Sprintf("%.1f%%", 100*(1-float64(spin)/float64(base))))
			}
			return row, nil
		})
	}
	return s
}
