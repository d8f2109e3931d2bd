package bench

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/netsim"
)

// TestRunAppOverlapMatchesFresh runs RunApp's overlapped replays three times
// on one Env — twice on a perfect network, so the second call Resets the
// sPIN engine that last ran on replayBoth's goroutine, then under loss —
// and requires each result and fault-counter delta to equal a fresh Env's.
// The race job runs it repeatedly, so a replay that touches the Env or the
// program set off the calling goroutine is reported by name.
func TestRunAppOverlapMatchesFresh(t *testing.T) {
	const iters = 10
	var pop apps.App
	for _, a := range apps.Suite() {
		if a.Name == "POP" && a.Ranks == 64 {
			pop = a
		}
	}
	if pop.Ranks == 0 {
		t.Fatal("apps.Suite has no POP-64")
	}
	lossy, err := netsim.ParseImpairment("loss=0.001,jitter=1us,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	shared := NewEnv()
	for i, im := range []*netsim.Impairment{nil, nil, lossy} {
		// The overlap runs only when the point takes the correction step.
		probe := freshEnv(nil)
		probe.impair = im
		run := probe.mpiRunner(mpisim.HostMatching)
		compute, err := pop.Calibrate(run, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		base, err := run(pop.Programs(iters, compute))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := corrected(pop, base, compute); !ok {
			t.Fatalf("run %d (impair %q): POP-64 at %d iterations takes no correction step, so replayBoth never runs", i, im.Key(), iters)
		}

		fresh := freshEnv(nil)
		fresh.impair = im
		want, err := RunApp(fresh, pop, iters)
		if err != nil {
			t.Fatal(err)
		}
		shared.impair = im
		before := shared.FaultStats()
		got, err := RunApp(shared, pop, iters)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (impair %q): shared Env gave %+v, fresh Env %+v", i, im.Key(), got, want)
		}
		if d, w := shared.FaultStats().Sub(before), fresh.FaultStats(); d != w {
			t.Errorf("run %d (impair %q): shared Env faults %+v, fresh Env %+v", i, im.Key(), d, w)
		}
		if w := fresh.FaultStats(); im != nil && !w.Any() {
			t.Errorf("run %d (impair %q): no fault injected, so the lossy case checks nothing", i, im.Key())
		}
	}
}
