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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/raidsim"
	"repro/internal/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against the given streams and returns the process
// exit code, so the golden manifest test can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spintrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "pingpong-stream", "scenario to trace")
	nic := fs.String("nic", "int", "NIC type: int or dis")
	size := fs.Int("size", 8192, "message size in bytes")
	ranks := fs.Int("ranks", 8, "ranks (bcast only)")
	width := fs.Int("width", 100, "chart width in columns")
	csv := fs.Bool("csv", false, "emit CSV spans instead of ASCII")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	p, err := netsim.ParseNIC(*nic)
	if err != nil {
		fmt.Fprintf(stderr, "spintrace: -nic: %v\n", err)
		return 2
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
		fmt.Fprintf(stderr, "spintrace: unknown scenario %q\n", *scenario)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "spintrace:", err)
		return 1
	}
	if *csv {
		rec.RenderCSV(stdout)
		return 0
	}
	fmt.Fprintf(stdout, "scenario %s, %d B, %s NIC\n", *scenario, *size, p.DMA.Name)
	rec.RenderASCII(stdout, *width)
	return 0
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
