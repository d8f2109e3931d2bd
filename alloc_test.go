// Allocation-budget regression gates for the hot paths tracked in
// BENCH_core.json. The budgets are deliberately looser than the measured
// numbers (they are ceilings, not targets) so routine noise never trips
// them, but a regression that reintroduces per-event or per-replay
// allocation — a closure on the schedule path, a lost free list, a cache
// bypass — fails here before it can land. scripts/check.sh (and therefore
// CI's `make check`) runs this test on every merge.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/portals"
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
const (
	engineScheduleBudget     = 0
	clusterSendLargeBudget   = 7
	table5cBudget            = 150_000
	table5cLPBudget          = 160_000
	spcBudget                = 15_000
	fig5aBudget              = 120_000
	retransSteadyStateBudget = 0
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
				NoData: true, Length: 8, Target: 1, PTIndex: 0, MatchBits: 0x11,
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
	// spinbench takes.
	for _, c := range []struct {
		name, id string
		opts     bench.RunOptions
		budget   int64
	}{
		{"Table5c", "table5c", bench.RunOptions{}, table5cBudget},
		{"Table5cLP4", "table5c", bench.RunOptions{LP: 4}, table5cLPBudget},
		{"Fig5a", "fig5a", bench.RunOptions{}, fig5aBudget},
		{"SPC", "spc", bench.RunOptions{}, spcBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					regen(b, c.id, benchScale, c.opts)
				}
			})
			if got := res.AllocsPerOp(); got > c.budget {
				t.Errorf("%s regeneration = %d allocs/op, budget %d", c.name, got, c.budget)
			}
		})
	}
}
