// Allocation-budget regression gates for the hot paths tracked in
// BENCH_core.json. The budgets are deliberately looser than the measured
// numbers (they are ceilings, not targets) so routine noise never trips
// them, but a regression that reintroduces per-event or per-replay
// allocation — a closure on the schedule path, a lost free list, a cache
// bypass — fails here before it can land. scripts/check.sh (and therefore
// CI's `make check`) runs this test on every merge.
package repro_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/portals"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Budgets, mirroring BENCH_core.json:
//
//   - engineScheduleBudget: the per-event path has been allocation-free
//     since PR 1 (BenchmarkEngineSchedule 0 allocs/op). It also holds for
//     the calendar queue's rare paths: a deep hold whose deltas swing
//     between 1 ns and 1 ms scales retunes and rebuilds the calendar
//     without allocating.
//   - clusterSendLargeBudget: BenchmarkClusterSendLarge measures 7
//     allocs per 256-packet message on a cold cluster; steady state on a
//     warm cluster is lower still.
//   - table5cBudget: one Table 5c regeneration at benchScale. PR 2
//     measured 6,539,299 allocs; the PR-3 replay-engine reuse brought it to
//     ~439k, and the PR-5 pooled program sets plus the allocation-free
//     neighbor arithmetic to ~74k. The 150k budget admits drift — any
//     return toward per-replay program construction fails the gate.
//   - table5cLPBudget: the same regeneration with every replay partitioned
//     into 4 logical processes (RunOptions.LP). LP mode costs ~1.5k extra
//     allocs over serial (shard clusters, window channels, cross-shard
//     outbox growth), measured ~96k against serial's ~95k; the slightly
//     wider budget keeps the gate sensitive to a leak in the
//     flush/outbox path without tripping on shard setup.
//   - spcBudget: one full SPC trace-study regeneration (five traces, both
//     NIC types, both protocols). PR 3 measured ~155k allocs, dominated by
//     per-request portals work; the PR-4 portals-layer pooling (message
//     free list, pooled pendingOps/contexts, closure-free EQ/CT dispatch)
//     brings it to ~2.9k. The 15k budget is a 10x regression gate that
//     still sits 10x below the pre-pooling regime.
//   - fig5aBudget: one Fig 5a regeneration at benchScale. ~321k before
//     PR 5; pooled triggered-op records, the closure-free MEContext owner
//     dispatch, NI-pooled EQs/CTs/PT entries, and the Env arenas for
//     matching entries, child lists, and deposit regions bring it to
//     ~108k. The 120k budget fails if any of those pools is lost.
//   - retransSteadyStateBudget: the reliable-put retransmit loop — record,
//     per-attempt message, timer event, ack, and the lost messages
//     themselves — runs entirely on NI/cluster/engine free lists, so after
//     warmup a put that is lost and retransmitted costs zero allocations.
//   - serveHitBudget: one warm POST /run cache hit through
//     Server.ServeHTTP, with a ResponseWriter that keeps only headers. It
//     cost 31 allocations while every hit rebuilt the registry, hashed
//     its content address, read an empty body, built a url.Values map and
//     made three header slices; a hit is now one lookup under the server's
//     lock and allocates nothing. Zero leaves no factor to apply, so the
//     budget allows one allocation for the standard library's share of
//     the path (ServeMux routing), which a Go release may change. Each
//     cost the hit shed is at least two allocations (the body read, the
//     smallest, is two), so any one of them coming back fails the gate.
//   - findExperimentBudget: a registry lookup scans the registry built
//     once at package initialization and allocates nothing.
//   - serveHealthzBudget: GET /healthz writes the body serve.New rendered
//     once and allocates nothing; encoding a fresh map per call cost 14
//     allocations. The budget allows the same one standard-library
//     allocation as serveHitBudget.
//   - the *Bytes ceilings: bytes allocated per regeneration at benchScale.
//     Timing-only ME regions (portals.ME.Length) hold no bytes, so no
//     regeneration allocates or zero-fills host memory it only times.
//     With a fresh region per rank and per raidsim system, Fig 5a
//     allocated 150.8 MB, SPC 50.3 MB, Fig 7c 42.6 MB and the trees
//     ablation 38.8 MB; with one zero-filled array per bench.Env and per
//     raidsim system, Fig 7a allocated 18.3 MB, Fig 7c 4.78, SPC 12.4 and
//     trees 6.36; with length-only regions, 1.56, 0.59, 5.99 and 5.24 MB.
//     Fig 5a's 16.6 MB then held no host region either, but 4.3 MB of it
//     was PutFromDevice staging zero stand-ins for packets without data.
//     Handlers now forward such a packet as a length, which stages
//     nothing: Fig 5a allocated 12.3 MB (rig set-up and event storage),
//     trees 2.96, Fig 7c 0.32 and SPC 5.84. Most of what was left was
//     history nobody read: every DMA bus and HPU issue timeline kept each
//     span it had reserved until 4,096 piled up, and every event queue
//     stored each event its OnEvent handler had already taken. Timelines
//     now forget the spans that ended before their engine's clock, and a
//     queue with a handler stores nothing: Fig 5a allocates 6.89 MB, SPC
//     0.35, trees 0.61, and Table 5c 24.4 (31.8 before), 25.2 at LP4
//     (32.5). Most of Table 5c's was then its program sets, every halo
//     iteration of every rank unrolled; each rank now stores one
//     iteration and an mpisim.OpRepeat, and Table 5c allocates 9.41 MB,
//     10.1 at LP4. Every ceiling is about twice the last value, so even
//     one zero array per Env (Fig 7a's 16 MiB landing area) or per
//     raidsim system, staged stand-ins, a timeline or queue that keeps
//     its history again, or rank programs unrolled again, fail the gate.
const (
	engineScheduleBudget     = 0
	clusterSendLargeBudget   = 7
	table5cBudget            = 150_000
	table5cLPBudget          = 160_000
	spcBudget                = 15_000
	fig5aBudget              = 120_000
	retransSteadyStateBudget = 0
	findExperimentBudget     = 0
	serveHitBudget           = 1
	serveHealthzBudget       = 1

	table5cBytesBudget   = 19_000_000
	table5cLPBytesBudget = 21_000_000
	fig5aBytesBudget     = 14_000_000
	spcBytesBudget       = 700_000
	fig7aBytesBudget     = 3_200_000
	fig7cBytesBudget     = 650_000
	treesBytesBudget     = 1_200_000
)

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets gated in the non-race job")
	}
	if testing.Short() {
		t.Skip("alloc budgets regenerate Table 5c; skipped in -short")
	}

	t.Run("EngineSchedule", func(t *testing.T) {
		e := sim.NewEngine()
		fn := func(any) {}
		for i := 0; i < 1024; i++ {
			e.ScheduleCall(sim.Time(i), fn, nil)
		}
		i := 0
		got := testing.AllocsPerRun(1000, func() {
			e.ScheduleCall(e.Now()+sim.Time(i%64)+1, fn, nil)
			e.Step()
			i++
		})
		if got > engineScheduleBudget {
			t.Errorf("schedule+dispatch = %.1f allocs/op, budget %d", got, engineScheduleBudget)
		}

		// A steady-state hold at depth 4096 whose deltas alternate between
		// 1 ns–1 us and 1 us–1 ms from one measured block to the next. Each
		// block is 1<<14 dispatches, two retune windows of the calendar's
		// 2048 buckets, so every block changes the bucket width and rebuilds
		// the calendar in place; a rebuild that allocated would show.
		deep := sim.NewEngine()
		scale, k := sim.Nanosecond, 0
		var hold func(any)
		hold = func(any) {
			k++
			deep.ScheduleCall(deep.Now()+scale*sim.Time(1+k*7919%1000), hold, nil)
		}
		for i := 0; i < 4096; i++ {
			hold(nil)
		}
		got = testing.AllocsPerRun(20, func() {
			for i := 0; i < 1<<14; i++ {
				deep.Step()
			}
			scale = sim.Microsecond + sim.Nanosecond - scale // 1 ns <-> 1 us
		})
		if got > engineScheduleBudget || deep.Pending() != 4096 {
			t.Errorf("deep hold = %.1f allocs per %d dispatches at depth %d, budget %d",
				got, 1<<14, deep.Pending(), engineScheduleBudget)
		}
	})

	t.Run("ClusterSendLarge", func(t *testing.T) {
		p := netsim.Integrated()
		const size = 1 << 20
		c, err := netsim.NewCluster(2, p)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			c.Send(c.Eng.Now(), &netsim.Message{Type: netsim.OpPut, Src: 0, Dst: 1, Length: size})
			c.Eng.Run()
		})
		if got > clusterSendLargeBudget {
			t.Errorf("1 MiB send = %.1f allocs/op, budget %d", got, clusterSendLargeBudget)
		}
	})

	t.Run("ServeHit", func(t *testing.T) {
		if got := testing.AllocsPerRun(1000, func() {
			foundExp, _ = bench.FindExperiment("fig3b")
		}); got > findExperimentBudget {
			t.Errorf("FindExperiment = %.1f allocs/op, budget %d", got, findExperimentBudget)
		}

		s := serve.New(serve.Config{Workers: 1, Version: "alloc"})
		defer s.Close()
		r := httptest.NewRequest(http.MethodPost, "/run?experiment=fig3b&scale=1&format=csv", nil)
		w := &headerWriter{h: http.Header{}}
		s.ServeHTTP(w, r) // the miss that fills the cache
		got := testing.AllocsPerRun(1000, func() { s.ServeHTTP(w, r) })
		if w.status != http.StatusOK || w.h.Get("X-Cache") != "hit" {
			t.Fatalf("warm request: status %d, X-Cache %q, want 200 hit", w.status, w.h.Get("X-Cache"))
		}
		t.Logf("POST /run cache hit: %.1f allocs/op", got)
		if got > serveHitBudget {
			t.Errorf("POST /run cache hit = %.1f allocs/op, budget %d", got, serveHitBudget)
		}
	})

	t.Run("ServeHealthz", func(t *testing.T) {
		s := serve.New(serve.Config{Workers: 1, Version: "alloc"})
		defer s.Close()
		r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := &headerWriter{h: http.Header{}}
		got := testing.AllocsPerRun(1000, func() { s.ServeHTTP(w, r) })
		if w.status != http.StatusOK {
			t.Fatalf("GET /healthz: status %d, want 200", w.status)
		}
		t.Logf("GET /healthz: %.1f allocs/op", got)
		if got > serveHealthzBudget {
			t.Errorf("GET /healthz = %.1f allocs/op, budget %d", got, serveHealthzBudget)
		}
	})

	t.Run("RetransSteadyState", func(t *testing.T) {
		p := netsim.Integrated()
		c, err := netsim.NewCluster(2, p)
		if err != nil {
			t.Fatal(err)
		}
		// Every second packet on each link dies, so half the puts are
		// retransmitted and half the acks are lost (forcing duplicate
		// deposits) — the full recovery machinery runs on every iteration.
		c.SetImpairment(&netsim.Impairment{LossEveryN: 2})
		nis := portals.Setup(c)
		if _, err := nis[1].PTAlloc(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := nis[1].MEAppend(0, &portals.ME{Start: make([]byte, 8), MatchBits: 0x11}, portals.PriorityList); err != nil {
			t.Fatal(err)
		}
		nis[0].ConfigureRetrans(portals.RetransConfig{Timeout: 10 * sim.Microsecond})
		put := func() {
			if _, err := nis[0].ReliablePut(c.Eng.Now(), portals.PutArgs{
				Length: 8, Target: 1, PTIndex: 0, MatchBits: 0x11,
			}); err != nil {
				t.Fatal(err)
			}
			c.Eng.Run()
		}
		for i := 0; i < 64; i++ { // fill the record/message/event pools
			put()
		}
		if got := testing.AllocsPerRun(200, put); got > retransSteadyStateBudget {
			t.Errorf("lossy reliable put = %.1f allocs/op, budget %d", got, retransSteadyStateBudget)
		}
	})

	// Each regeneration goes through the registry (regen), the path
	// spinbench takes. A zero budget is not gated.
	for _, c := range []struct {
		name, id string
		opts     bench.RunOptions
		budget   int64 // allocations per regeneration
		bytes    int64 // bytes allocated per regeneration
	}{
		{"Table5c", "table5c", bench.RunOptions{}, table5cBudget, table5cBytesBudget},
		{"Table5cLP4", "table5c", bench.RunOptions{LP: 4}, table5cLPBudget, table5cLPBytesBudget},
		{"Fig5a", "fig5a", bench.RunOptions{}, fig5aBudget, fig5aBytesBudget},
		{"SPC", "spc", bench.RunOptions{}, spcBudget, spcBytesBudget},
		{"Fig7a", "fig7a", bench.RunOptions{}, 0, fig7aBytesBudget},
		{"Fig7c", "fig7c", bench.RunOptions{}, 0, fig7cBytesBudget},
		{"Trees", "trees", bench.RunOptions{}, 0, treesBytesBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					regen(b, c.id, benchScale, c.opts)
				}
			})
			t.Logf("%s regeneration: %d allocs/op, %d bytes/op", c.name, res.AllocsPerOp(), res.AllocedBytesPerOp())
			if got := res.AllocsPerOp(); c.budget > 0 && got > c.budget {
				t.Errorf("%s regeneration = %d allocs/op, budget %d", c.name, got, c.budget)
			}
			if got := res.AllocedBytesPerOp(); c.bytes > 0 && got > c.bytes {
				t.Errorf("%s regeneration = %d bytes/op, budget %d", c.name, got, c.bytes)
			}
		})
	}
}

// foundExp keeps the ServeHit subtest's FindExperiment calls live.
var foundExp bench.Experiment

// headerWriter is an http.ResponseWriter that keeps the status and the
// header map and drops the body, so a request's allocations are the
// handler's own.
type headerWriter struct {
	h      http.Header
	status int
}

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(status int)      { w.status = status }
