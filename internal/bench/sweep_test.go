package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

func tableCSV(t *Table) string {
	var sb strings.Builder
	t.CSV(&sb)
	return sb.String()
}

// runPooled runs s as queued tasks on a short-lived pool of n workers: the
// parallel shape the determinism tests compare against serial.
func runPooled(s *Sweep, n int, opts RunOptions) (*Table, error) {
	pool := NewPool(n)
	defer pool.Close()
	opts.Pool = pool
	return s.Run(opts)
}

func buildExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("experiment %q not registered", id)
	return Experiment{}
}

// TestSweepResetAndParallelDeterminism is the golden equality check behind
// the reuse and parallelism contracts: for each listed experiment the CSV
// output must be byte-identical across (a) the from-scratch baseline (a
// fresh Env: a new cluster/engine/system for every request), (b) the
// serial runner reusing Reset state, (c) a short-lived worker pool, and
// (d) an LP run. The list covers every reuse mechanism: fig3b and fig5a
// exercise the cluster cache, table5c the mpisim engine cache, spc (trace
// replays) and fig7c (single updates) the raidsim system cache, and fig7a
// an 8 MiB timing-only landing area plus the vectorized scatter path
// (both columns, so the sPIN column's bit-identity
// contract is pinned here too — since PR 5's vectorized scatter it runs at the common
// subsample in well under a second). scripts/check.sh runs this test as the merge gate — a
// nondeterministic merge or a stale field missed by a Reset shows up here
// as a byte diff.
func TestSweepResetAndParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig3b", "fig5a", "table5c", "spc", "fig7c", "fig7a"} {
		scale := 4
		exp := buildExperiment(t, id)
		freshTab, err := exp.Build(scale).Run(RunOptions{Fresh: true})
		if err != nil {
			t.Fatalf("%s fresh: %v", id, err)
		}
		fresh := tableCSV(freshTab)

		reuseTab, err := exp.Build(scale).Run(RunOptions{})
		if err != nil {
			t.Fatalf("%s serial reuse: %v", id, err)
		}
		if reuse := tableCSV(reuseTab); reuse != fresh {
			t.Fatalf("%s: Reset-reuse output differs from fresh-cluster output:\n--- fresh ---\n%s--- reuse ---\n%s", id, fresh, reuse)
		}

		parTab, err := runPooled(exp.Build(scale), 4, RunOptions{})
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if par := tableCSV(parTab); par != fresh {
			t.Fatalf("%s: parallel output differs from serial output:\n--- serial ---\n%s--- parallel ---\n%s", id, fresh, par)
		}

		lpTab, err := exp.Build(scale).Run(RunOptions{LP: 4})
		if err != nil {
			t.Fatalf("%s lp: %v", id, err)
		}
		if lp := tableCSV(lpTab); lp != fresh {
			t.Fatalf("%s: LP-partitioned output differs from serial output:\n--- serial ---\n%s--- lp ---\n%s", id, fresh, lp)
		}
	}
}

// TestEnvReusesClusters pins the cache behaviour Env exists for: same
// configuration, same cluster (reset); different node count or parameters,
// different cluster; equal-valued topologies built by separate calls still
// share; a fresh Env builds anew for every request; and raidsim systems
// key on their fault model.
func TestEnvReusesClusters(t *testing.T) {
	e := NewEnv()
	c1, nis1, err := e.cluster(4, netsim.Integrated(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Send(0, &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: 64})
	c1.Eng.Run()
	if c1.Eng.Now() == 0 {
		t.Fatal("workload did not advance the clock")
	}
	c2, nis2, err := e.cluster(4, netsim.Integrated(), nil) // fresh Params value, same config
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 || &nis2[0] == nil || nis2[0] != nis1[0] {
		t.Fatal("same configuration should return the cached cluster and NIs")
	}
	if c2.Eng.Now() != 0 || c2.MessagesSent != 0 {
		t.Fatal("cached cluster was not reset")
	}
	if c3, _, _ := e.cluster(5, netsim.Integrated(), nil); c3 == c1 {
		t.Fatal("different node count must not share a cluster")
	}
	if c4, _, _ := e.cluster(4, netsim.Discrete(), nil); c4 == c1 {
		t.Fatal("different parameters must not share a cluster")
	}
	fe := freshEnv(nil)
	f1, _, err := fe.cluster(4, netsim.Integrated(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := fe.cluster(4, netsim.Integrated(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 || f1 == c1 {
		t.Fatal("a fresh Env must build a new cluster for every request")
	}

	im := &netsim.Impairment{Seed: 7, Jitter: 2 * sim.Microsecond}
	plain, err := e.raidSystem(netsim.Integrated(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	impaired, err := e.raidSystem(netsim.Integrated(), true, im)
	if err != nil {
		t.Fatal(err)
	}
	if plain == impaired {
		t.Fatal("impaired and unimpaired raidsim requests must not share a system")
	}
	if plain.C.Impairment() != nil || impaired.C.Impairment() != im {
		t.Fatalf("raidsim fault models: unimpaired=%v impaired=%v", plain.C.Impairment(), impaired.C.Impairment())
	}
}

// TestSweepRunTwice pins that Run starts every run from an empty row list:
// running one sweep twice returns the same table both times.
func TestSweepRunTwice(t *testing.T) {
	s := buildExperiment(t, "fig4").Build(1)
	first, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(first)
	second, err := s.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableCSV(second); got != want {
		t.Fatalf("second run of one sweep returned %d rows, want %d:\n--- first ---\n%s--- second ---\n%s", len(second.Rows), s.Points(), want, got)
	}
}

// TestRowKeysIdentifyPoints pins the contract Sweep.Row's keys carry and a
// Pool's point memo relies on: keys are unique within a sweep, and two
// points of one experiment with equal keys produce byte-identical rows and
// fault-counter deltas at any scale. Every registered experiment runs point
// by point on one Env, as a pool worker would, at scales 1, 2, 3 and 5
// clamped to its range; table5c runs at scales 8, 12 and 20, whose 15, 10
// and 10 halo iterations give it both distinct and equal keys. ftbcast's
// built-in fault schedule makes its deltas non-zero.
func TestRowKeysIdentifyPoints(t *testing.T) {
	type result struct {
		scale  int
		row    []string
		faults netsim.FaultStats
	}
	for _, exp := range Experiments() {
		scales := []int{1, 2, 3, 5}
		if exp.ID == "table5c" {
			scales = []int{8, 12, 20}
		}
		e := NewEnv()
		seen := make(map[string]result)
		last := 0
		for _, scale := range scales {
			scale = min(max(scale, exp.MinScale), exp.MaxScale)
			if scale == last {
				continue
			}
			last = scale
			s := exp.Build(scale)
			inSweep := make(map[string]bool)
			for i, point := range s.points {
				key := s.keys[i]
				if inSweep[key] {
					t.Fatalf("%s scale %d: key %q registered twice", exp.ID, scale, key)
				}
				inSweep[key] = true
				before := e.FaultStats()
				row, err := point(e)
				if err != nil {
					t.Fatalf("%s scale %d key %q: %v", exp.ID, scale, key, err)
				}
				got := result{scale, row, e.FaultStats().Sub(before)}
				if prev, ok := seen[key]; ok {
					if !slices.Equal(got.row, prev.row) || got.faults != prev.faults {
						t.Fatalf("%s scale %d key %q: row %q faults %+v, but scale %d gave row %q faults %+v",
							exp.ID, scale, key, got.row, got.faults, prev.scale, prev.row, prev.faults)
					}
					continue
				}
				seen[key] = got
			}
		}
	}
}

// TestSweepErrorPropagates checks Run surfaces a failing point's error in
// point order, serial and parallel. The pooled sweep runs twice on one pool
// and fails both times: a failed point is never remembered.
func TestSweepErrorPropagates(t *testing.T) {
	build := func() *Sweep {
		s := NewSweep(&Table{ID: "x", Header: []string{"v"}})
		for i := 0; i < 6; i++ {
			s.Row(fmt.Sprint(i), func(e *Env) ([]string, error) {
				// An impossible ping-pong: oversized HPU memory demand is
				// not triggerable here, so use a plain failing point.
				if i == 3 {
					return nil, errPoint
				}
				return []string{"ok"}, nil
			})
		}
		return s
	}
	if _, err := build().Run(RunOptions{}); err != errPoint {
		t.Fatalf("serial: err = %v, want errPoint", err)
	}
	pool := NewPool(3)
	defer pool.Close()
	for run := 1; run <= 2; run++ {
		if _, err := build().Run(RunOptions{Pool: pool}); err != errPoint {
			t.Fatalf("parallel run %d: err = %v, want errPoint", run, err)
		}
	}
}

var errPoint = &pointError{}

type pointError struct{}

func (*pointError) Error() string { return "point failed" }

// TestSingleHelperEquivalence pins that the exported single-point helpers
// (fresh Env) and the sweep path measure the same thing: one of each family.
func TestSingleHelperEquivalence(t *testing.T) {
	p := netsim.Integrated()
	e := NewEnv()
	a, err := PingPongHalfRTT(p, SpinStream, 4096, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pingPongHalfRTT(e, p, SpinStream, 4096, noise.None())
	if err != nil {
		t.Fatal(err)
	}
	c, err := pingPongHalfRTT(e, p, SpinStream, 4096, noise.None()) // reused cluster
	if err != nil {
		t.Fatal(err)
	}
	if a != b || b != c {
		t.Fatalf("ping-pong diverged: fresh=%v env=%v env-reused=%v", a, b, c)
	}
}

// TestImpairedSweepDeterminism extends the golden equality check to sweeps
// running under a fault model: with a fixed impairment, CSV output and the
// accumulated fault counters must be byte-identical across the from-scratch
// baseline, the Reset-reuse serial runner, and a short-lived worker pool.
// fig3b runs under jitter+latency only — ping-pong has no retransmission
// path, so loss would legitimately stall it — while ftbcast layers user
// loss+jitter on top of its built-in recovery machinery, and fig7c runs
// its raidsim updates under jitter, so the counters must include the
// raidsim cache's (harvested before every Reset). This is the -race
// job's impaired variant: a fault schedule that leaked state across Reset or
// depended on worker interleaving shows up here as a row or counter diff.
func TestImpairedSweepDeterminism(t *testing.T) {
	cases := []struct {
		id string
		im *netsim.Impairment
	}{
		{"fig3b", &netsim.Impairment{Seed: 11, ExtraLatency: 300 * sim.Nanosecond, Jitter: 200 * sim.Nanosecond}},
		{"ftbcast", &netsim.Impairment{Seed: 9, Loss: 0.02, Jitter: 300 * sim.Nanosecond}},
		{"fig7c", &netsim.Impairment{Seed: 7, Jitter: 2 * sim.Microsecond}},
	}
	for _, tc := range cases {
		scale := 4
		exp := buildExperiment(t, tc.id)

		fresh := exp.Build(scale)
		freshTab, err := fresh.Run(RunOptions{Fresh: true, Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired fresh: %v", tc.id, err)
		}
		want := tableCSV(freshTab)
		wantFaults := fresh.Faults()
		if !wantFaults.Any() {
			t.Fatalf("%s: impairment installed but no faults recorded", tc.id)
		}

		serial := exp.Build(scale)
		serialTab, err := serial.Run(RunOptions{Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired serial: %v", tc.id, err)
		}
		if got := tableCSV(serialTab); got != want {
			t.Fatalf("%s: impaired Reset-reuse output differs from fresh:\n--- fresh ---\n%s--- reuse ---\n%s", tc.id, want, got)
		}
		if serial.Faults() != wantFaults {
			t.Fatalf("%s: serial fault counters diverged: %+v vs %+v", tc.id, serial.Faults(), wantFaults)
		}

		par := exp.Build(scale)
		parTab, err := runPooled(par, 4, RunOptions{Impairment: tc.im})
		if err != nil {
			t.Fatalf("%s impaired parallel: %v", tc.id, err)
		}
		if got := tableCSV(parTab); got != want {
			t.Fatalf("%s: impaired parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", tc.id, want, got)
		}
		if par.Faults() != wantFaults {
			t.Fatalf("%s: parallel fault counters diverged: %+v vs %+v", tc.id, par.Faults(), wantFaults)
		}
	}
}
