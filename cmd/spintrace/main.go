// Command spintrace renders per-rank component timelines (CPU, NIC, DMA,
// HPU n) for the paper's microbenchmark scenarios — the Appendix C trace
// diagrams as ASCII charts or CSV.
//
// Usage:
//
//	spintrace -scenario pingpong-stream -size 8192
//	spintrace -scenario accumulate -nic dis -size 8192
//	spintrace -scenario bcast -ranks 8 -size 4096 -csv
//
// Scenarios: pingpong-rdma, pingpong-store, pingpong-stream, accumulate,
// bcast, ddt, raid.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/raidsim"
	"repro/internal/timeline"
)

func main() {
	scenario := flag.String("scenario", "pingpong-stream", "scenario to trace")
	nic := flag.String("nic", "int", "NIC type: int or dis")
	size := flag.Int("size", 8192, "message size in bytes")
	ranks := flag.Int("ranks", 8, "ranks (bcast only)")
	width := flag.Int("width", 100, "chart width in columns")
	csv := flag.Bool("csv", false, "emit CSV spans instead of ASCII")
	flag.Parse()

	p, err := netsim.ParseNIC(*nic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spintrace: -nic: %v\n", err)
		os.Exit(2)
	}
	rec := &timeline.Recorder{}
	switch *scenario {
	case "pingpong-rdma":
		err = bench.TracePingPong(p, bench.RDMA, *size, rec)
	case "pingpong-store":
		err = bench.TracePingPong(p, bench.SpinStore, *size, rec)
	case "pingpong-stream":
		err = bench.TracePingPong(p, bench.SpinStream, *size, rec)
	case "accumulate":
		err = bench.TraceAccumulate(p, *size, rec)
	case "bcast":
		err = bench.TraceBroadcast(p, *ranks, *size, rec)
	case "ddt":
		err = bench.TraceStrided(p, *size, rec)
	case "raid":
		err = traceRaid(p, *size, rec)
	default:
		fmt.Fprintf(os.Stderr, "spintrace: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spintrace:", err)
		os.Exit(1)
	}
	if *csv {
		rec.RenderCSV(os.Stdout)
		return
	}
	fmt.Printf("scenario %s, %d B, %s NIC\n", *scenario, *size, p.DMA.Name)
	rec.RenderASCII(os.Stdout, *width)
}

func traceRaid(p netsim.Params, size int, rec *timeline.Recorder) error {
	sys, err := raidsim.New(p, true)
	if err != nil {
		return err
	}
	sys.C.Rec = rec
	_, err = sys.Write(0, size)
	return err
}
