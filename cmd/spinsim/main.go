// Command spinsim runs a single microbenchmark scenario with explicit
// parameters and prints the simulated result — a quick way to explore the
// model outside the fixed paper sweeps of spinbench.
//
// Usage:
//
//	spinsim -scenario pingpong -variant spin-stream -size 65536 -nic dis
//	spinsim -scenario accumulate -size 262144
//	spinsim -scenario bcast -ranks 256 -variant p4 -size 8
//	spinsim -scenario ddt -blocksize 256
//	spinsim -scenario raid -size 16384 -variant rdma
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/noise"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against the given streams and returns the process
// exit code, so the golden manifest test can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spinsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "pingpong", "pingpong | accumulate | bcast | ddt | raid")
	variant := fs.String("variant", "spin-stream", "rdma | p4 | spin-store | spin-stream")
	nic := fs.String("nic", "int", "int | dis")
	size := fs.Int("size", 8192, "message/transfer size in bytes")
	blocksize := fs.Int("blocksize", 1024, "datatype blocksize (ddt)")
	ranks := fs.Int("ranks", 64, "process count (bcast)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	p, err := netsim.ParseNIC(*nic)
	if err != nil {
		fmt.Fprintf(stderr, "spinsim: -nic: %v\n", err)
		return 2
	}
	variants := map[string]bench.Variant{
		"rdma": bench.RDMA, "p4": bench.P4,
		"spin-store": bench.SpinStore, "spin-stream": bench.SpinStream,
	}
	v, ok := variants[*variant]
	if !ok {
		fmt.Fprintf(stderr, "spinsim: unknown variant %q\n", *variant)
		return 2
	}

	var d sim.Time
	var what string
	switch *scenario {
	case "pingpong":
		d, err = bench.PingPongHalfRTT(p, v, *size, noise.None())
		what = fmt.Sprintf("half round-trip of %d B (%v)", *size, v)
	case "accumulate":
		d, err = bench.AccumulateTime(p, v == bench.SpinStore || v == bench.SpinStream, *size)
		what = fmt.Sprintf("accumulate of %d B", *size)
	case "bcast":
		d, err = bench.BroadcastTime(p, v, *ranks, *size)
		what = fmt.Sprintf("broadcast of %d B to %d ranks (%v)", *size, *ranks, v)
	case "ddt":
		d, err = bench.StridedReceiveTime(p, v == bench.SpinStore || v == bench.SpinStream, *blocksize)
		what = fmt.Sprintf("strided receive of 4 MiB, blocksize %d (sPIN=%v)", *blocksize, v != bench.RDMA && v != bench.P4)
	case "raid":
		d, err = bench.RaidUpdateTime(p, v == bench.SpinStore || v == bench.SpinStream, *size)
		what = fmt.Sprintf("RAID-5 update of %d B", *size)
	default:
		fmt.Fprintf(stderr, "spinsim: unknown scenario %q\n", *scenario)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "spinsim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s NIC, %s: %v\n", p.DMA.Name, what, d)
	return 0
}
