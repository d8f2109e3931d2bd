package bench

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPoolRunByteIdentical extends the determinism golden to the queued-
// task pool: a sweep executed on a shared persistent pool — including a
// pool whose Envs are warm from previous, differently-impaired runs — must
// produce the bytes of a serial run, and per-sweep fault counters must
// charge each sweep exactly its own faults even when two impaired sweeps
// share the pool concurrently. trees and fig7c run on the same pool too:
// their handlers write into the zero array of the worker's Env and of each
// raidsim system on every packet, so under -race they fail if two workers
// ever share an array.
func TestPoolRunByteIdentical(t *testing.T) {
	scale := 4
	exp := buildExperiment(t, "fig3b")
	serialTab, err := exp.Build(scale).Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(serialTab)

	pool := NewPool(3)
	defer pool.Close()

	poolTab, err := exp.Build(scale).Run(RunOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableCSV(poolTab); got != want {
		t.Fatalf("pool output differs from serial:\n--- serial ---\n%s--- pool ---\n%s", want, got)
	}
	for _, id := range []string{"trees", "fig7c"} {
		e := buildExperiment(t, id)
		serial, err := e.Build(scale).Run(RunOptions{})
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		pooled, err := e.Build(scale).Run(RunOptions{Pool: pool})
		if err != nil {
			t.Fatalf("%s pool: %v", id, err)
		}
		if got, want := tableCSV(pooled), tableCSV(serial); got != want {
			t.Fatalf("%s pool output differs from serial:\n--- serial ---\n%s--- pool ---\n%s", id, want, got)
		}
	}

	// Impaired reference runs, serial.
	im := &netsim.Impairment{Seed: 11, ExtraLatency: 300 * sim.Nanosecond, Jitter: 200 * sim.Nanosecond}
	impairedRef := exp.Build(scale)
	impairedRefTab, err := impairedRef.Run(RunOptions{Impairment: im})
	if err != nil {
		t.Fatal(err)
	}
	wantImpaired := tableCSV(impairedRefTab)
	wantFaults := impairedRef.Faults()
	if !wantFaults.Any() {
		t.Fatal("impaired reference recorded no faults")
	}

	// One impaired and one unimpaired sweep running concurrently on the
	// same (already warm) pool: bytes and fault attribution must both hold.
	var wg sync.WaitGroup
	impaired := exp.Build(scale)
	plain := exp.Build(scale)
	var impairedCSV, plainCSV string
	var impairedErr, plainErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		tab, err := impaired.Run(RunOptions{Pool: pool, Impairment: im})
		if err != nil {
			impairedErr = err
			return
		}
		impairedCSV = tableCSV(tab)
	}()
	go func() {
		defer wg.Done()
		tab, err := plain.Run(RunOptions{Pool: pool})
		if err != nil {
			plainErr = err
			return
		}
		plainCSV = tableCSV(tab)
	}()
	wg.Wait()
	if impairedErr != nil || plainErr != nil {
		t.Fatalf("concurrent pool runs failed: %v / %v", impairedErr, plainErr)
	}
	if impairedCSV != wantImpaired {
		t.Fatalf("impaired pool output differs from impaired serial:\n--- serial ---\n%s--- pool ---\n%s", wantImpaired, impairedCSV)
	}
	if plainCSV != want {
		t.Fatalf("unimpaired pool output (shared with impaired sweep) differs from serial:\n--- serial ---\n%s--- pool ---\n%s", want, plainCSV)
	}
	if impaired.Faults() != wantFaults {
		t.Fatalf("impaired sweep fault counters diverged on the pool: %+v vs %+v", impaired.Faults(), wantFaults)
	}
	if f := plain.Faults(); f.Any() {
		t.Fatalf("unimpaired sweep was charged faults from its pool neighbor: %+v", f)
	}
	if pool.Completed() == 0 {
		t.Fatal("pool completed-task counter never advanced")
	}
}

// TestPoolKeepsFtbcastScheduleToItself pins that ftbcast's built-in fault
// schedule is part of its cluster request: a warm pool worker that ran
// ftbcast must still hand bcast-store, which asks for the same 64-rank
// discrete configuration, a perfect network.
func TestPoolKeepsFtbcastScheduleToItself(t *testing.T) {
	serialTab, err := buildExperiment(t, "bcast-store").Build(1).Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(serialTab)

	pool := NewPool(1)
	defer pool.Close()
	if _, err := buildExperiment(t, "ftbcast").Build(1).Run(RunOptions{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	s := buildExperiment(t, "bcast-store").Build(1)
	tab, err := s.Run(RunOptions{Pool: pool})
	if err != nil {
		t.Fatalf("bcast-store after ftbcast on one worker: %v", err)
	}
	if f := s.Faults(); f.Any() {
		t.Fatalf("bcast-store after ftbcast on one worker was charged faults: %+v", f)
	}
	if got := tableCSV(tab); got != want {
		t.Fatalf("bcast-store after ftbcast on one worker differs from serial:\n--- serial ---\n%s--- pool ---\n%s", want, got)
	}
}

// TestPoolProgress pins the Progress callback: called once per point with
// the running count and a constant total.
func TestPoolProgress(t *testing.T) {
	exp := buildExperiment(t, "fig4")
	pool := NewPool(2)
	defer pool.Close()
	s := exp.Build(1)
	total := s.Points()
	var calls atomic.Int64
	var sawTotal atomic.Int64
	_, err := s.Run(RunOptions{Pool: pool, Progress: func(done, tot int) {
		calls.Add(1)
		sawTotal.Store(int64(tot))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != total || int(sawTotal.Load()) != total {
		t.Fatalf("progress: %d calls, reported total %d, want %d", calls.Load(), sawTotal.Load(), total)
	}
}

// TestRegistryMetadata pins the machine-readable registry against drift:
// every experiment's Columns must match the header its builder lays out (at
// min and max scale), scale bounds must be sane, and the spc trace replay
// must be the only experiment refusing fault models.
func TestRegistryMetadata(t *testing.T) {
	for _, e := range Experiments() {
		if e.Desc == "" {
			t.Errorf("%s: empty description", e.ID)
		}
		if e.MinScale < 1 || e.MaxScale < e.MinScale ||
			e.DefaultScale < e.MinScale || e.DefaultScale > e.MaxScale {
			t.Errorf("%s: incoherent scale bounds default=%d min=%d max=%d",
				e.ID, e.DefaultScale, e.MinScale, e.MaxScale)
		}
		for _, scale := range []int{e.MinScale, e.MaxScale} {
			s := e.Build(scale)
			if got, want := s.Header(), e.Columns; !equalStrings(got, want) {
				t.Errorf("%s at scale %d: registry columns %v drifted from built header %v",
					e.ID, scale, want, got)
			}
			if s.Points() == 0 {
				t.Errorf("%s at scale %d: builder registered no points", e.ID, scale)
			}
		}
		if !e.Impairable && e.ID != "spc" {
			t.Errorf("%s: only spc (raidsim trace replays, no recovery layer) may refuse impairment", e.ID)
		}
	}
	if _, ok := FindExperiment("FIG3B"); !ok {
		t.Error("FindExperiment is not case-insensitive")
	}
	if _, ok := FindExperiment("bogus"); ok {
		t.Error("FindExperiment resolved an unknown id")
	}
	if ids := ExperimentIDs(); len(ids) != len(Experiments()) || ids[0] != "fig3b" {
		t.Errorf("ExperimentIDs out of shape: %v", ids)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
