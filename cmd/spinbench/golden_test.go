package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// update rewrites the golden manifest from the current code:
//
//	go test ./cmd/spinbench -run TestGoldenManifest -update
//
// A change that rewrites it must say which digits moved and why.
var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const (
	goldenPath      = "testdata/golden.sha256"
	benchGoldenPath = "../../benchmark/testdata/golden.sha256"
)

// goldenMode runs every experiment, one at a time, with the same flags.
// scale and impair name the benchmark manifest's key for the experiment's
// stdout when the mode prints plain CSV (csv set).
type goldenMode struct {
	name   string
	flags  []string
	scale  int
	impair string
	csv    bool
}

var goldenModes = []goldenMode{
	{name: "csv-scale1", flags: []string{"-csv"}, scale: 1, csv: true},
	{name: "csv-scale4", flags: []string{"-scale", "4", "-csv"}, scale: 4, csv: true},
	{name: "parallel2-scale4", flags: []string{"-scale", "4", "-parallel", "2"}, scale: 4},
	{name: "lp2-scale4", flags: []string{"-scale", "4", "-lp", "2"}, scale: 4},
	{name: "jitter-csv-scale4", flags: []string{"-scale", "4", "-impair", "jitter=2us,seed=7", "-csv"},
		scale: 4, impair: "jitter=2us,seed=7", csv: true},
}

// goldenRuns are whole invocations pinned as one entry each: a lossy
// multi-experiment run at scale 8, and a lossy run that fails at its first
// experiment and exits 1.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"lossy-scale8", []string{"-scale", "8", "-impair", "loss=0.001,jitter=1us,seed=3", "-exp", "table5c,ftbcast,fig7c"}},
	{"lossy-exit1", []string{"-exp", "fig7c,fig3b,fig5a", "-impair", "loss=0.01,seed=3"}},
}

// goldenEntry is one manifest line: the SHA-256 of stdout and of stderr
// and the exit code of one spinbench invocation.
type goldenEntry struct {
	stdout, stderr string
	exit           int
}

func (g goldenEntry) String() string {
	return fmt.Sprintf("stdout %s, stderr %s, exit %d", g.stdout, g.stderr, g.exit)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runGolden(args []string) goldenEntry {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return goldenEntry{stdout: sha(out.Bytes()), stderr: sha(errOut.Bytes()), exit: code}
}

// readManifest parses "<stdout-sha256> <stderr-sha256> <exit> <key>" lines.
func readManifest(t *testing.T) map[string]goldenEntry {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	m := make(map[string]goldenEntry)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 || len(f[0]) != 2*sha256.Size || len(f[1]) != 2*sha256.Size {
			t.Fatalf("%s:%d: want \"<stdout-sha256> <stderr-sha256> <exit> <key>\", got %q", goldenPath, line, sc.Text())
		}
		exit, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatalf("%s:%d: exit code: %v", goldenPath, line, err)
		}
		m[f[3]] = goldenEntry{stdout: f[0], stderr: f[1], exit: exit}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenManifest pins every printed byte of spinbench: for each mode
// and experiment, and for each whole run, the SHA-256 of stdout and of
// stderr and the exit code must match testdata/golden.sha256. A failure
// names the mode and the experiment. -wall output is excluded (wall time
// is not a function of the code). The scale-1 mode is the slowest; -short
// skips it.
func TestGoldenManifest(t *testing.T) {
	var want map[string]goldenEntry
	if !*update {
		want = readManifest(t)
	}
	var manifest bytes.Buffer
	manifest.WriteString("# spinbench golden manifest: <stdout-sha256> <stderr-sha256> <exit> <mode/experiment | run>\n")
	manifest.WriteString("# regenerate: go test ./cmd/spinbench -run TestGoldenManifest -update\n")
	check := func(t *testing.T, key string, args []string) {
		got := runGolden(args)
		fmt.Fprintf(&manifest, "%s %s %d %s\n", got.stdout, got.stderr, got.exit, key)
		if *update {
			return
		}
		if w, ok := want[key]; !ok {
			t.Fatalf("%s (spinbench %s): no manifest entry (regenerate with -update)", key, strings.Join(args, " "))
		} else if got != w {
			t.Errorf("%s (spinbench %s): got %v; manifest has %v", key, strings.Join(args, " "), got, w)
		}
	}
	// Manifest order: each mode's experiments in registry order, then the
	// whole runs.
	for _, m := range goldenModes {
		t.Run(m.name, func(t *testing.T) {
			if m.scale == 1 && testing.Short() && !*update {
				t.Skip("scale-1 mode skipped in -short")
			}
			for _, id := range bench.ExperimentIDs() {
				check(t, m.name+"/"+id, append(slices.Clone(m.flags), "-exp", id))
			}
		})
	}
	for _, r := range goldenRuns {
		t.Run(r.name, func(t *testing.T) { check(t, r.name, r.args) })
	}
	if *update {
		if err := os.WriteFile(goldenPath, manifest.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenManifestMatchesBenchmark keeps the two manifests from
// drifting apart: every (experiment, scale, impairment) key the
// benchmark's golden file shares with a CSV mode here must carry the same
// CSV hash. It reads benchmark/testdata/golden.sha256 and runs nothing.
func TestGoldenManifestMatchesBenchmark(t *testing.T) {
	b, err := os.ReadFile(benchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	benchHash := make(map[string]string)
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			benchHash[f[1]] = f[0]
		}
	}
	want := readManifest(t)
	shared := 0
	for _, m := range goldenModes {
		if !m.csv {
			continue
		}
		imp := m.impair
		if imp == "" {
			imp = "-"
		}
		for _, id := range bench.ExperimentIDs() {
			bk := fmt.Sprintf("%s/%d/%s", id, m.scale, imp)
			h, ok := benchHash[bk]
			if !ok {
				continue
			}
			shared++
			key := m.name + "/" + id
			if got := want[key].stdout; got != h {
				t.Errorf("%s: stdout sha256 %s here, %s in %s as %s", key, got, h, benchGoldenPath, bk)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no key shared with the benchmark manifest; the cross-check would be vacuous")
	}
}
