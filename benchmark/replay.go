package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// replayStats is what a layer-by-layer replay measured.
type replayStats struct {
	faults   netsim.FaultStats
	replays  int
	events   uint64
	messages uint64
	points   []float64 // per-application latencies, ms
}

// appReplayer replays table5c applications the way bench.RunApp does on a
// fresh Env, but from public calls into apps and mpisim with a span around
// each: calibration, program construction, engine construction, engine
// reset and replay. Engines are cached per (ranks, protocol) like the
// Env's, so the replays make the same calls in the same order.
type appReplayer struct {
	r       *runner
	id      int
	im      *netsim.Impairment
	iters   int
	buf     mpisim.ProgramBuffer
	engines []cachedEngine
	cur     int // the span the next call nests in
	stats   replayStats
}

type cachedEngine struct {
	ranks int
	mode  mpisim.MatchMode
	eng   *mpisim.Engine
}

func newAppReplayer(r *runner, k expRun, id int) (*appReplayer, error) {
	x := &appReplayer{r: r, id: id, iters: max(bench.Table5cIterations/max(k.scale, 1), 10)}
	if k.impair != "" {
		var err error
		if x.im, err = netsim.ParseImpairment(k.impair); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// replay is the apps.Runner for one protocol.
func (x *appReplayer) replay(mode mpisim.MatchMode) apps.Runner {
	tr := x.r.tr
	return func(progs [][]mpisim.Op) (mpisim.Result, error) {
		var eng *mpisim.Engine
		if i := slices.IndexFunc(x.engines, func(e cachedEngine) bool { return e.ranks == len(progs) && e.mode == mode }); i >= 0 {
			eng = x.engines[i].eng
			x.stats.faults.Add(eng.C.Faults) // Reset clears the counters
			sp := tr.begin("mpisim.reset", "", x.id, 0, x.cur)
			err := eng.Reset(progs)
			tr.end(sp)
			if err != nil {
				return mpisim.Result{}, err
			}
		} else {
			cfg := mpisim.DefaultConfig(mode)
			cfg.Impair = x.im
			sp := tr.begin("mpisim.new", "", x.id, 0, x.cur)
			var err error
			eng, err = mpisim.New(cfg, progs)
			tr.end(sp)
			if err != nil {
				return mpisim.Result{}, err
			}
			x.engines = append(x.engines, cachedEngine{len(progs), mode, eng})
		}
		sp := tr.begin("mpisim.run", "", x.id, 0, x.cur)
		res, err := eng.Run()
		tr.end(sp)
		x.stats.replays++
		x.stats.events += res.Events
		x.stats.messages += res.Messages
		return res, err
	}
}

func (x *appReplayer) programs(a apps.App, compute sim.Time) [][]mpisim.Op {
	sp := x.r.tr.begin("apps.programs", "", x.id, 0, x.cur)
	defer x.r.tr.end(sp)
	return a.ProgramsInto(&x.buf, x.iters, compute)
}

// app replays one application with both protocols, as bench.RunApp does,
// and returns its table5c row.
func (x *appReplayer) app(a apps.App, parent int) (bench.AppResult, error) {
	tr := x.r.tr
	t0 := now()
	sp := tr.begin("apps.app", fmt.Sprintf("%s-%d", a.Name, a.Ranks), x.id, 0, parent)
	defer tr.end(sp)
	x.cur = tr.begin("apps.calibrate", "", x.id, 0, sp)
	compute, err := a.Calibrate(x.replay(mpisim.HostMatching), 8, &x.buf)
	tr.end(x.cur)
	x.cur = sp
	if err != nil {
		return bench.AppResult{}, err
	}
	progs := x.programs(a, compute)
	base, err := x.replay(mpisim.HostMatching)(progs)
	if err != nil {
		return bench.AppResult{}, err
	}
	if got := base.OverheadFraction(a.Ranks); got > 0.001 && got < a.TargetP2PFraction {
		compute = sim.Time(float64(compute) * got / a.TargetP2PFraction)
		progs = x.programs(a, compute)
		if base, err = x.replay(mpisim.HostMatching)(progs); err != nil {
			return bench.AppResult{}, err
		}
	}
	spin, err := x.replay(mpisim.SpinMatching)(progs)
	if err != nil {
		return bench.AppResult{}, err
	}
	x.stats.points = append(x.stats.points, since(t0)*1e3)
	return bench.AppResult{
		App:      a,
		Messages: base.Messages,
		Overhead: base.OverheadFraction(a.Ranks),
		Speedup:  float64(base.Runtime-spin.Runtime) / float64(base.Runtime),
	}, nil
}

// finish adds the counters still live on the cached engines.
func (x *appReplayer) finish() replayStats {
	for _, e := range x.engines {
		x.stats.faults.Add(e.eng.C.Faults)
	}
	return x.stats
}

// replayTable5c regenerates table5c at k's scale and impairment through an
// appReplayer. Its output is checked against the same golden hash as the
// registry's, which is what keeps the two paths equal.
func (r *runner) replayTable5c(k expRun, id, parent int) ([]byte, replayStats, error) {
	x, err := newAppReplayer(r, k, id)
	if err != nil {
		return nil, replayStats{}, err
	}
	exp, _ := bench.FindExperiment("table5c")
	var out bytes.Buffer
	fmt.Fprintln(&out, strings.Join(exp.Columns, ","))
	for _, a := range apps.Suite() {
		res, err := x.app(a, parent)
		if err != nil {
			return nil, x.stats, err
		}
		fmt.Fprintf(&out, "%s,%d,%d,%.1f%%,%.1f%%,%.1f%%,%.1f%%\n", a.Name, a.Ranks, res.Messages,
			100*res.Overhead, 100*res.Speedup, 100*a.TargetP2PFraction, 100*a.PaperSpeedup)
	}
	return out.Bytes(), x.finish(), nil
}
