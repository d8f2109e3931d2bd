// Command benchmark is the repository's performance benchmark. It runs one
// of four fixed workloads — table5c trace replays (mpi-replay), the
// portals/HPU experiments (nic-offload), the same layers on their recovery
// path (faulty-net), and the experiment service under a closed-loop
// request mix (serve-mix) — checks every output it produces against the
// golden hashes in testdata/golden.sha256, and prints the workload's
// end-to-end metrics. With -trace it instead wraps spans around the calls
// it makes into each layer, runs the per-layer probes, writes a Chrome
// trace and a CPU profile, and prints the per-layer metrics.
//
// Usage, from the repository root (run.sh builds the binary from source
// into .bench_build/ and runs it):
//
//	bash benchmark/run.sh -workload mpi-replay -seed 7 -seconds 18 -trace 0
//	bash benchmark/run.sh -seed 7               # every workload, each in a child process
//	bash benchmark/run.sh -seed 7 -trace DIR    # per-layer run; traces and profiles in DIR
//	bash benchmark/run.sh -write-golden benchmark/testdata/golden.sha256
//
// -trace takes 0 (untraced), 1 (traced, files in .bench_build/trace) or a
// directory. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it repeat
// every metric for a reader, with its sample count.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty = all, each in its own child process): "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 18, "how long one run measures")
	trace := fs.String("trace", "0", "0 = end-to-end metrics; 1 or a directory = per-layer metrics, with traces written to .bench_build/trace or that directory")
	golden := fs.String("write-golden", "", "regenerate the golden hash file at this path and exit")
	coldPass := fs.Bool("cold-pass", false, "make only the workload's first pass and print its time as setup_s (a pass-based run starts such children to time its set-up again)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *golden != "" {
		if err := writeGolden(*golden, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	traceDir := ""
	switch *trace {
	case "0", "":
	case "1":
		traceDir = filepath.Join(".bench_build", "trace")
	default:
		traceDir = *trace
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, traceDir != "", stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	r := newRunner(gold, *seed, *seconds, false, stderr)
	var res result
	switch {
	case *coldPass && w.pass == nil:
		fmt.Fprintf(stderr, "benchmark: -cold-pass needs a pass-based workload, not %s\n", w.name)
		return 2
	case *coldPass:
		res, err = r.coldPass(w)
	default:
		res, err = r.measure(w, traceDir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, w.name, res)
	return 0
}

// runAll runs every workload in its own child process, so that each
// reports its own peak RSS, and prints one combined result whose metric
// names carry the workload as a prefix.
func runAll(seed int64, seconds float64, trace string, traced bool, stdout, stderr io.Writer) int {
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads() {
		res, err := child(stdout, stderr, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, s := range declared(traced) {
			total.Metrics[w.name+"/"+s.name] = res.Metrics[s.name]
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// child runs this binary with args, waits for it, copies its standard
// output to stdout (when non-nil) and returns the result it printed last.
func child(stdout, stderr io.Writer, args ...string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	if stdout != nil {
		cmd.Stdout = io.MultiWriter(stdout, &out)
	}
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	b := bytes.TrimSpace(out.Bytes())
	var res result
	if err := json.Unmarshal(b[bytes.LastIndexByte(b, '\n')+1:], &res); err != nil {
		return result{}, fmt.Errorf("reading result: %w", err)
	}
	return res, nil
}
