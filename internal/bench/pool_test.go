package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPoolRunByteIdentical extends the determinism golden to the queued-
// task pool: a sweep executed on a shared persistent pool — including a
// pool whose Envs are warm from previous, differently-impaired runs — must
// produce the bytes of a serial run, and per-sweep fault counters must
// charge each sweep exactly its own faults even when an impaired and an
// unimpaired sweep share the pool concurrently. Every sweep here is its
// experiment's first on the pool, so the memo answers none of their points
// and all of them execute. trees and fig7c run on the same pool too, so
// their handler DMA and raidsim replay paths run on concurrent workers
// under -race: any state two workers shared would show as a race.
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

	// executed counts the points the pool has run: each sweep below is
	// its experiment's first on this pool, so every point executes.
	poolSweep := exp.Build(scale)
	executed := poolSweep.Points()
	poolTab, err := poolSweep.Run(RunOptions{Pool: pool})
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
		s := e.Build(scale)
		executed += s.Points()
		pooled, err := s.Run(RunOptions{Pool: pool})
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

	// One impaired fig3b and one unimpaired fig3c sweep running
	// concurrently on the same (already warm) pool: bytes and fault
	// attribution must both hold. The pool has finished neither sweep's
	// points before, so the memo answers none of them and both execute.
	plainExp := buildExperiment(t, "fig3c")
	plainSerial, err := plainExp.Build(scale).Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantPlain := tableCSV(plainSerial)
	var wg sync.WaitGroup
	impaired := exp.Build(scale)
	plain := plainExp.Build(scale)
	waitCompleted(t, pool, uint64(executed))
	reused := pool.Reused()
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
	if plainCSV != wantPlain {
		t.Fatalf("unimpaired pool output (shared with impaired sweep) differs from serial:\n--- serial ---\n%s--- pool ---\n%s", wantPlain, plainCSV)
	}
	if impaired.Faults() != wantFaults {
		t.Fatalf("impaired sweep fault counters diverged on the pool: %+v vs %+v", impaired.Faults(), wantFaults)
	}
	if f := plain.Faults(); f.Any() {
		t.Fatalf("unimpaired sweep was charged faults from its pool neighbor: %+v", f)
	}
	if got := pool.Reused() - reused; got != 0 {
		t.Fatalf("concurrent section reused %d memoized points, want 0", got)
	}
	waitCompleted(t, pool, uint64(executed+impaired.Points()+plain.Points()))
}

// TestPoolMemoReusesPoints runs overlapping sweeps on one pool. fig7a at
// scales 2, 3 and 8 registers only points that its scale-1 sweep already
// finished, so after scale 1 every later point comes from the memo and no
// task runs; each table still matches serial byte for byte. fig3b then
// runs unimpaired at scale 1 and under jitter at scales 1 and 2: the
// memo's impairment key keeps the jittered sweep from reusing unimpaired
// rows, the scale-2 sweep reuses every point of the scale-1 one, and rows
// and fault counters equal the serial impaired runs.
func TestPoolMemoReusesPoints(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	fig7a := buildExperiment(t, "fig7a")
	for i, scale := range []int{1, 2, 3, 8} {
		serial, err := fig7a.Build(scale).Run(RunOptions{})
		if err != nil {
			t.Fatalf("fig7a scale %d serial: %v", scale, err)
		}
		s := fig7a.Build(scale)
		completed, reused := pool.Completed(), pool.Reused()
		tab, err := s.Run(RunOptions{Pool: pool})
		if err != nil {
			t.Fatalf("fig7a scale %d pool: %v", scale, err)
		}
		if got, want := tableCSV(tab), tableCSV(serial); got != want {
			t.Fatalf("fig7a scale %d pool output differs from serial:\n--- serial ---\n%s--- pool ---\n%s", scale, want, got)
		}
		if i == 0 {
			// A worker counts a task just after the task signals done, so
			// wait for the fresh pool's counter to reach the sweep's points.
			waitCompleted(t, pool, uint64(s.Points()))
			continue
		}
		if got := pool.Reused() - reused; got != uint64(s.Points()) {
			t.Fatalf("fig7a scale %d reused %d points, want all %d", scale, got, s.Points())
		}
		if got := pool.Completed(); got != completed {
			t.Fatalf("fig7a scale %d executed %d points, want 0", scale, got-completed)
		}
	}

	fig3b := buildExperiment(t, "fig3b")
	if _, err := fig3b.Build(1).Run(RunOptions{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	jitter, err := netsim.ParseImpairment("jitter=2us,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for i, scale := range []int{1, 2} {
		ref := fig3b.Build(scale)
		refTab, err := ref.Run(RunOptions{Impairment: jitter})
		if err != nil {
			t.Fatalf("fig3b scale %d impaired serial: %v", scale, err)
		}
		if f := ref.Faults(); !f.Any() {
			t.Fatalf("fig3b scale %d: jitter recorded no faults", scale)
		}
		s := fig3b.Build(scale)
		reused := pool.Reused()
		tab, err := s.Run(RunOptions{Pool: pool, Impairment: jitter})
		if err != nil {
			t.Fatalf("fig3b scale %d impaired pool: %v", scale, err)
		}
		if got, want := tableCSV(tab), tableCSV(refTab); got != want {
			t.Fatalf("fig3b scale %d impaired pool output differs from serial:\n--- serial ---\n%s--- pool ---\n%s", scale, want, got)
		}
		if s.Faults() != ref.Faults() {
			t.Fatalf("fig3b scale %d impaired pool faults %+v, serial %+v", scale, s.Faults(), ref.Faults())
		}
		want := uint64(0) // nothing jittered has run yet
		if i > 0 {
			want = uint64(s.Points())
		}
		if got := pool.Reused() - reused; got != want {
			t.Fatalf("fig3b scale %d impaired reused %d points, want %d", scale, got, want)
		}
	}
}

// waitCompleted waits until the pool's executed-point counter reads want.
func waitCompleted(t *testing.T, p *Pool, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Completed() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pool completed %d points, want %d", p.Completed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolMemoBounded stores more than memoCap points: the memo never
// holds more than memoCap, and the store that finds it full drops the
// oldest key.
func TestPoolMemoBounded(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	key := func(i int) pointKey { return pointKey{exp: "x", point: fmt.Sprint(i)} }
	for i := 0; i <= memoCap; i++ {
		pool.remember(key(i), pointResult{row: []string{fmt.Sprint(i)}})
		if got := pool.MemoEntries(); got > memoCap {
			t.Fatalf("memo holds %d entries after %d stores, over the cap %d", got, i+1, memoCap)
		}
	}
	if _, ok := pool.recall(key(0)); ok {
		t.Fatal("the oldest key survived a store into a full memo")
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
