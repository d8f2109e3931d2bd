// Command spinbench regenerates the tables and figures of the sPIN paper's
// evaluation (§4.4, §5). Each experiment rebuilds the corresponding
// simulated system and prints the series the paper plots.
//
// Usage:
//
//	spinbench                  # run everything at full resolution
//	spinbench -exp fig3b       # one experiment
//	spinbench -exp fig3b,fig5a # several experiments
//	spinbench -scale 4         # subsample sweeps for a quick look
//	spinbench -parallel 0      # parallelize across GOMAXPROCS workers
//	spinbench -csv             # machine-readable output
//	spinbench -list            # list experiment ids
//	spinbench -list -json      # machine-readable registry metadata
//	spinbench -wall            # report wall time, allocations and bytes per experiment
//	spinbench -impair 'loss=0.01,jitter=2us,seed=7'
//	                           # inject a deterministic network fault model
//	spinbench -lp 4            # partition mpisim replays into 4 logical
//	                           # processes (identical bytes, parallel DES)
//
// -parallel N parallelizes on two levels: up to N independent experiments
// run concurrently, and every experiment's measurement points are queued
// as tasks on one shared bench.Pool of N persistent workers — the
// experiment goroutines only orchestrate (build sweeps, render tables);
// measurement points execute exclusively on pool workers, so a wide run is
// bounded at N executing points by construction. A point is one engine,
// except that a table5c point replays its corrected program set with host
// and sPIN matching at once on two engines (at any -parallel, 1 included),
// and each -lp K replay runs K engines. Output stays
// byte-identical to a serial run: each experiment renders into its own
// buffer and the buffers are flushed in selection order, and rows merge in
// point order regardless of which worker simulated them (each point is
// hermetic under the reset-equals-fresh contract).
//
// -impair installs a seeded netsim.Impairment on every simulated cluster:
// packet loss (random or every-Nth), corruption, extra latency and jitter,
// bandwidth throttling, and timed link failures. Fault draws are a pure
// function of (seed, link, packet), so impaired runs are byte-identical
// across re-runs and across -parallel settings; the per-experiment fault
// counters are reported on stderr. spc's raidsim trace replays ignore the
// model (the storage service has no recovery layer); fig7c's single
// updates on raidsim systems take it.
//
// -lp K runs every mpisim trace replay (table5c) as a conservative parallel
// discrete-event simulation: the cluster is partitioned into up to K logical
// processes, each on a private engine, synchronized by link-latency
// lookahead windows. Output is byte-identical to -lp 1 — only wall-clock
// changes. LP parallelism is within one simulation point, -parallel across
// points; when both are set the pool's worker count is divided by K so the
// machine-wide engine budget stays at -parallel (twice that while table5c
// points run their two replays at once).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/netsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against the given streams and returns the process
// exit code. It exists (rather than doing everything in main) so the
// serial-vs-concurrent output-equality test can drive the real pipeline.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids (see -list)")
	scale := fs.Int("scale", 1, "subsample sweeps by this factor (1 = full)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "with -list, emit the registry metadata as JSON")
	wall := fs.Bool("wall", false, "report wall-clock time, heap allocations and bytes allocated per experiment on stderr")
	parallel := fs.Int("parallel", 1, "concurrent experiments and sweep workers per experiment (1 = serial, 0 = GOMAXPROCS)")
	impair := fs.String("impair", "", "deterministic network fault model, e.g. 'loss=0.01,jitter=2us,fail=0:1:0,seed=7'")
	lp := fs.Int("lp", 1, "logical processes per mpisim replay (conservative parallel DES; output is byte-identical to -lp 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var im *netsim.Impairment
	if *impair != "" {
		var err error
		if im, err = netsim.ParseImpairment(*impair); err != nil {
			fmt.Fprintf(stderr, "spinbench: -impair: %v\n", err)
			return 2
		}
	}

	exps := bench.Experiments()
	if *list {
		if *asJSON {
			// The same metadata struct the server's GET /experiments
			// serves: ids, scale bounds, column names, impairment support.
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(exps); err != nil {
				fmt.Fprintf(stderr, "spinbench: %v\n", err)
				return 1
			}
			return 0
		}
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	sel, unknown := selectExperiments(exps, *exp)
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "spinbench: unknown experiment ids: %s (valid: %s)\n",
			strings.Join(unknown, ", "), strings.Join(bench.ExperimentIDs(), ", "))
		return 1
	}
	if len(sel) == 0 {
		fmt.Fprintf(stderr, "spinbench: no experiment ids in %q (use -list)\n", *exp)
		return 1
	}

	if *wall {
		fmt.Fprintf(stderr, "spinbench: version %s\n", buildinfo.Version)
	}
	if *lp < 1 {
		fmt.Fprintf(stderr, "spinbench: -lp must be >= 1\n")
		return 2
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		// Serial: run and flush experiment by experiment (streaming), which
		// produces the reference byte stream the pooled path matches.
		for _, e := range sel {
			var o expOutput
			runExperiment(e, *scale, nil, im, *lp, *csv, *wall, &o)
			if flushExperiment(e, &o, stdout, stderr) != 0 {
				return 1
			}
		}
		return 0
	}
	// Parallel: ONE shared persistent pool of N workers executes every
	// simulation point of every selected experiment as a queued task, so a
	// wide run is bounded at N executing points by construction (a table5c
	// point runs its host and sPIN replays at once, so up to 2N engines).
	// Up to N experiment goroutines only orchestrate — build sweeps, render
	// tables — into per-experiment buffers, and the flush below reproduces
	// the serial byte stream regardless of completion order. Note -wall
	// alloc counts and bytes include concurrently running experiments in
	// this mode (runtime.MemStats is process-global).
	// LP parallelism multiplies the engine count per executing point (2K
	// for a table5c point), so the pool's worker budget is divided by K to
	// keep machine-wide concurrency near the -parallel target.
	poolWorkers := workers / *lp
	if poolWorkers < 1 {
		poolWorkers = 1
	}
	pool := bench.NewPool(poolWorkers)
	defer pool.Close()
	expWorkers := workers
	if expWorkers > len(sel) {
		expWorkers = len(sel)
	}
	outs := make([]expOutput, len(sel))
	var wg sync.WaitGroup
	for w := 0; w < expWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(sel); i += expWorkers {
				runExperiment(sel[i], *scale, pool, im, *lp, *csv, *wall, &outs[i])
				if outs[i].err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	// Flush buffered output in selection order; stop at the first failed
	// experiment, which is what a serial run would have printed.
	for i := range outs {
		if code := flushExperiment(sel[i], &outs[i], stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// flushExperiment writes one experiment's buffered output (or its error)
// to the real streams, returning the exit code so far.
func flushExperiment(e bench.Experiment, o *expOutput, stdout, stderr io.Writer) int {
	if o.err != nil {
		fmt.Fprintf(stderr, "spinbench: %s: %v\n", e.ID, o.err)
		return 1
	}
	if _, err := stdout.Write(o.out.Bytes()); err != nil {
		fmt.Fprintf(stderr, "spinbench: %v\n", err)
		return 1
	}
	stderr.Write(o.diag.Bytes())
	return 0
}

// expOutput collects one experiment's rendered table (out), its -wall
// diagnostics (diag), and its error, for in-order flushing.
type expOutput struct {
	out  bytes.Buffer
	diag bytes.Buffer
	err  error
}

// runExperiment builds and runs one experiment, rendering into o. With a
// non-nil pool its measurement points execute as queued tasks on the
// shared persistent workers (this goroutine never touches an engine);
// nil runs serially in place. A non-nil im is the -impair fault model; lp is
// the -lp logical-process count for mpisim replays.
func runExperiment(e bench.Experiment, scale int, pool *bench.Pool, im *netsim.Impairment, lp int, csv, wall bool, o *expOutput) {
	t0 := time.Now() //simlint:wallclock-ok -wall measures real elapsed time per experiment, reported on stderr only
	var m0 runtime.MemStats
	if wall {
		runtime.ReadMemStats(&m0)
	}
	s := e.Build(scale)
	tab, err := s.Run(bench.RunOptions{Pool: pool, Impairment: im, LP: lp})
	if err != nil {
		o.err = err
		return
	}
	if wall {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		elapsed := time.Since(t0) //simlint:wallclock-ok -wall measures real elapsed time per experiment, reported on stderr only
		fmt.Fprintf(&o.diag, "spinbench: %s: %v wall, %d allocs, %.1f MB\n",
			e.ID, elapsed.Round(time.Millisecond), m1.Mallocs-m0.Mallocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	// Fault counters are summed from every worker's environment, so the
	// line is identical no matter how the sweep was sharded.
	if f := s.Faults(); f.Any() {
		fmt.Fprintf(&o.diag, "spinbench: %s: faults: lost=%d blocked=%d corrupted=%d delayed=%d retransmits=%d retrans_failures=%d\n",
			e.ID, f.Lost, f.Blocked, f.Corrupted, f.Delayed, f.Retransmits, f.RetransFails)
	}
	if csv {
		tab.CSV(&o.out)
	} else {
		tab.Fprint(&o.out)
	}
}

// selectExperiments resolves a comma-separated id list ("all" or "" selects
// everything). Ids match case-insensitively; duplicates run once. Unknown
// ids are returned so the caller can report all of them before running
// anything.
func selectExperiments(exps []bench.Experiment, spec string) (sel []bench.Experiment, unknown []string) {
	if spec == "" || strings.EqualFold(spec, "all") {
		return exps, nil
	}
	seen := make(map[string]bool)
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		found := false
		for _, e := range exps {
			if strings.EqualFold(id, e.ID) {
				if !seen[e.ID] {
					seen[e.ID] = true
					sel = append(sel, e)
				}
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, id)
		}
	}
	return sel, unknown
}
