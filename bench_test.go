// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment at reduced
// sweep resolution (the full sweeps are cmd/spinbench's job) and reports
// paper-relevant quantities as custom metrics, so `go test -bench=.`
// doubles as a regression check on the reproduced shapes.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/noise"
)

// benchScale subsamples the sweeps so a full -bench=. run stays fast.
const benchScale = 4

// regen regenerates one registry experiment at scale under opts — the same
// FindExperiment(id).Build(scale).Run(opts) path spinbench takes — and
// fails tb on any error.
func regen(tb testing.TB, id string, scale int, opts bench.RunOptions) {
	tb.Helper()
	exp, ok := bench.FindExperiment(id)
	if !ok {
		tb.Fatalf("experiment %q not registered", id)
	}
	if _, err := exp.Build(scale).Run(opts); err != nil {
		tb.Fatalf("%s: %v", id, err)
	}
}

// runTable regenerates experiment id b.N times at benchScale.
func runTable(b *testing.B, id string, opts bench.RunOptions) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		regen(b, id, benchScale, opts)
	}
}

// BenchmarkFig3b regenerates Figure 3b (ping-pong, integrated NIC).
func BenchmarkFig3b(b *testing.B) {
	runTable(b, "fig3b", bench.RunOptions{})
	small, _ := bench.PingPongHalfRTT(netsim.Integrated(), bench.SpinStore, 8, noise.None())
	rdma, _ := bench.PingPongHalfRTT(netsim.Integrated(), bench.RDMA, 8, noise.None())
	b.ReportMetric(small.Microseconds(), "sPIN-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-8B-us")
}

// BenchmarkFig3c regenerates Figure 3c (ping-pong, discrete NIC).
func BenchmarkFig3c(b *testing.B) {
	runTable(b, "fig3c", bench.RunOptions{})
	small, _ := bench.PingPongHalfRTT(netsim.Discrete(), bench.SpinStore, 8, noise.None())
	rdma, _ := bench.PingPongHalfRTT(netsim.Discrete(), bench.RDMA, 8, noise.None())
	b.ReportMetric(small.Microseconds(), "sPIN-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-8B-us")
}

// BenchmarkFig3d regenerates Figure 3d (remote accumulate).
func BenchmarkFig3d(b *testing.B) {
	runTable(b, "fig3d", bench.RunOptions{})
	spin, _ := bench.AccumulateTime(netsim.Discrete(), true, 1<<18)
	rdma, _ := bench.AccumulateTime(netsim.Discrete(), false, 1<<18)
	b.ReportMetric(float64(rdma)/float64(spin), "speedup-256KiB-x")
}

// BenchmarkFig4 regenerates Figure 4 (HPUs needed, analytic model).
func BenchmarkFig4(b *testing.B) {
	runTable(b, "fig4", bench.RunOptions{})
	p := netsim.Integrated()
	b.ReportMetric(float64(bench.GBoundCrossover(p)), "gG-crossover-B")
	b.ReportMetric(bench.MaxHandlerTimeLine(p, 8, 4096).Nanoseconds(), "Tl-4096-ns")
}

// BenchmarkFig5a regenerates Figure 5a (binomial broadcast).
func BenchmarkFig5a(b *testing.B) {
	runTable(b, "fig5a", bench.RunOptions{})
	spin, _ := bench.BroadcastTime(netsim.Discrete(), bench.SpinStream, 1024, 8)
	rdma, _ := bench.BroadcastTime(netsim.Discrete(), bench.RDMA, 1024, 8)
	b.ReportMetric(spin.Microseconds(), "sPIN-1024p-8B-us")
	b.ReportMetric(rdma.Microseconds(), "RDMA-1024p-8B-us")
}

// BenchmarkTable5c regenerates Table 5c (application speedups).
func BenchmarkTable5c(b *testing.B) {
	runTable(b, "table5c", bench.RunOptions{})
}

// BenchmarkTable5cLP{1,2,4} regenerate Table 5c with every mpisim replay
// partitioned into logical processes (conservative parallel DES,
// RunOptions.LP). The output is byte-identical at every partition count —
// TestLPEquivalenceRandomized pins that — so the three rows isolate the
// wall-clock effect of partitioning alone. On a single-core machine the
// LP>1 gain comes from splitting one large event heap into K small ones;
// on multi-core machines the shards additionally run concurrently.
func BenchmarkTable5cLP1(b *testing.B) { benchTable5cLP(b, 1) }
func BenchmarkTable5cLP2(b *testing.B) { benchTable5cLP(b, 2) }
func BenchmarkTable5cLP4(b *testing.B) { benchTable5cLP(b, 4) }

func benchTable5cLP(b *testing.B, lp int) {
	b.Helper()
	runTable(b, "table5c", bench.RunOptions{LP: lp})
}

// BenchmarkFig7a regenerates Figure 7a (strided datatype receive).
func BenchmarkFig7a(b *testing.B) {
	runTable(b, "fig7a", bench.RunOptions{})
	spin, _ := bench.StridedReceiveTime(netsim.Integrated(), true, 4096)
	gib := float64(bench.DDTTotalBytes) / (spin.Seconds() * float64(1<<30))
	b.ReportMetric(gib, "sPIN-4KiB-GiB/s")
}

// BenchmarkFig7c regenerates Figure 7c (RAID-5 update).
func BenchmarkFig7c(b *testing.B) {
	runTable(b, "fig7c", bench.RunOptions{})
	spin, _ := bench.RaidUpdateTime(netsim.Discrete(), true, 1<<18)
	rdma, _ := bench.RaidUpdateTime(netsim.Discrete(), false, 1<<18)
	b.ReportMetric(float64(rdma)/float64(spin), "speedup-256KiB-x")
}

// BenchmarkSPC regenerates the §5.3 SPC trace study.
func BenchmarkSPC(b *testing.B) {
	runTable(b, "spc", bench.RunOptions{})
}

// BenchmarkAblationNoise regenerates the OS-noise sensitivity ablation.
func BenchmarkAblationNoise(b *testing.B) {
	runTable(b, "noise", bench.RunOptions{})
}

// BenchmarkAblationBcastStore regenerates the store-vs-stream ablation.
func BenchmarkAblationBcastStore(b *testing.B) {
	runTable(b, "bcast-store", bench.RunOptions{})
}

// BenchmarkAblationTrees regenerates the broadcast-algorithm ablation
// (binomial vs pipeline, the paper's §4.4.3 future-work item).
func BenchmarkAblationTrees(b *testing.B) {
	runTable(b, "trees", bench.RunOptions{})
}
