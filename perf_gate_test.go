// Wall-clock regression gates for experiments whose simulator-side cost
// (not simulated time) has regressed before. Budgets are an order of
// magnitude above the measured numbers so machine noise never trips them,
// while a true complexity regression — the failure mode they pin — blows
// through immediately. scripts/check.sh runs this file as a named perf
// smoke.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/bench"
)

// fig7aWallBudget bounds one Fig 7a regeneration at benchScale. The
// per-segment datatype scatter walked a []Segment per packet and scanned
// interval lists front-to-back, costing ~6 s; the PR-5 vectorized scatter
// (datatype visitor + Ctx.DMAToHostVec + the Intervals fast paths) brings
// it under 200 ms. A return to the per-segment regime is a ~30x breach of
// this budget, far outside machine variance.
const fig7aWallBudget = 2 * time.Second

func TestFig7aWallClock(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews wall clock; gated in the non-race job")
	}
	if testing.Short() {
		t.Skip("wall-clock gate regenerates Fig 7a; skipped in -short")
	}
	start := time.Now()
	regen(t, "fig7a", benchScale, bench.RunOptions{})
	if elapsed := time.Since(start); elapsed > fig7aWallBudget {
		t.Errorf("fig7a at benchScale took %v, budget %v — the per-segment scatter regression is back", elapsed, fig7aWallBudget)
	}
}
