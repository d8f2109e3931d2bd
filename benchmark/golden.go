package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// goldenFile holds one line per (experiment, scale, impairment) any workload
// runs: the SHA-256 of the table's CSV, as `spinbench -csv` prints it, and
// the key. Regenerate it with
//
//	bash benchmark/run.sh -write-golden benchmark/testdata/golden.sha256
//
//go:embed testdata/golden.sha256
var goldenFile string

// expRun is one regeneration: an experiment at a subsample scale under an
// impairment spec ("" = perfect network).
type expRun struct {
	id     string
	scale  int
	impair string
}

// String is the run's key in the golden file, e.g. "table5c/8/loss=0.001,seed=3".
func (k expRun) String() string {
	imp := k.impair
	if imp == "" {
		imp = "-"
	}
	return fmt.Sprintf("%s/%d/%s", k.id, k.scale, imp)
}

// loadGolden parses the embedded golden file into key -> hash.
func loadGolden() (map[string]string, error) {
	gold := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(goldenFile))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || len(f[0]) != 2*sha256.Size {
			return nil, fmt.Errorf("golden.sha256:%d: want \"<sha256>  <key>\", got %q", line, sc.Text())
		}
		gold[f[1]] = f[0]
	}
	return gold, sc.Err()
}

// regenerate runs k the way `spinbench -csv -exp ID -scale N -impair SPEC`
// does — serially, through the registry — and returns the table's CSV
// bytes and fault counters. progress, when non-nil, is called after every
// measurement point.
func regenerate(k expRun, progress func(done, total int)) ([]byte, netsim.FaultStats, error) {
	exp, ok := bench.FindExperiment(k.id)
	if !ok {
		return nil, netsim.FaultStats{}, fmt.Errorf("unknown experiment %q", k.id)
	}
	var im *netsim.Impairment
	if k.impair != "" {
		var err error
		if im, err = netsim.ParseImpairment(k.impair); err != nil {
			return nil, netsim.FaultStats{}, err
		}
	}
	sw := exp.Build(k.scale)
	tab, err := sw.Run(bench.RunOptions{Impairment: im, Progress: progress})
	if err != nil {
		return nil, netsim.FaultStats{}, fmt.Errorf("%v: %w", k, err)
	}
	var buf bytes.Buffer
	tab.CSV(&buf)
	return buf.Bytes(), sw.Faults(), nil
}

// hashHex returns the hex SHA-256 of b.
func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenKeys returns every run any workload can make, full size and smoke
// size, sorted by key.
func goldenKeys() []expRun {
	var keys []expRun
	for _, w := range workloads() {
		keys = append(keys, w.keys()...)
	}
	slices.SortFunc(keys, func(a, b expRun) int { return strings.Compare(a.String(), b.String()) })
	return slices.CompactFunc(keys, func(a, b expRun) bool { return a.String() == b.String() })
}

// writeGolden regenerates every golden hash and writes the file at path.
func writeGolden(path string, log io.Writer) error {
	var out bytes.Buffer
	keys := goldenKeys()
	for i, k := range keys {
		csv, _, err := regenerate(k, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "%s  %s\n", hashHex(csv), k)
		fmt.Fprintf(log, "golden %d/%d %s\n", i+1, len(keys), k)
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}
