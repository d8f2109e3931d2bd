package mpisim_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/mpisim"
)

// BenchmarkReplay is mpisim's layer benchmark: one op is one host-matching
// replay of Cloverleaf-360 at Table 5c's scale-2 length (60 halo passes) on
// an engine that is Reset for every replay, as the Table 5c sweep reuses
// its engines. It reports wall time per simulated event (ns/event) next to
// the bytes and allocations of a replay.
func BenchmarkReplay(b *testing.B) {
	clover := apps.Suite()[5]
	cfg := mpisim.DefaultConfig(mpisim.HostMatching)
	var buf mpisim.ProgramBuffer
	compute, err := clover.Calibrate(apps.Replay(cfg), 8, &buf)
	if err != nil {
		b.Fatal(err)
	}
	progs := clover.ProgramsInto(&buf, 60, compute)
	e, err := mpisim.New(cfg, progs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		if err := e.Reset(progs); err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
