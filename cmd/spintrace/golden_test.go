package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden manifest from the current code:
//
//	go test ./cmd/spintrace -run TestGoldenManifest -update
//
// A change that rewrites it must say which bytes moved and why.
var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const goldenPath = "testdata/golden.sha256"

var goldenScenarios = []string{"pingpong-rdma", "pingpong-store", "pingpong-stream", "accumulate", "bcast", "ddt", "raid"}

// TestGoldenManifest pins every byte spintrace prints: for each scenario,
// NIC and rendering (ASCII chart or -csv spans), the SHA-256 of stdout and
// of stderr and the exit code must match testdata/golden.sha256, the
// format of spinbench's manifest. A failure names the run.
func TestGoldenManifest(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readManifest(t)
	}
	var manifest bytes.Buffer
	manifest.WriteString("# spintrace golden manifest: <stdout-sha256> <stderr-sha256> <exit> <scenario/nic/format>\n")
	manifest.WriteString("# regenerate: go test ./cmd/spintrace -run TestGoldenManifest -update\n")
	for _, sc := range goldenScenarios {
		for _, nic := range []string{"int", "dis"} {
			for _, format := range []string{"ascii", "csv"} {
				key := sc + "/" + nic + "/" + format
				args := []string{"-scenario", sc, "-nic", nic}
				if format == "csv" {
					args = append(args, "-csv")
				}
				var out, errOut bytes.Buffer
				code := run(args, &out, &errOut)
				got := fmt.Sprintf("%s %s %d", sha(out.Bytes()), sha(errOut.Bytes()), code)
				fmt.Fprintf(&manifest, "%s %s\n", got, key)
				if *update {
					continue
				}
				if w, ok := want[key]; !ok {
					t.Errorf("%s (spintrace %s): no manifest entry (regenerate with -update)", key, strings.Join(args, " "))
				} else if got != w {
					t.Errorf("%s (spintrace %s): got %s; manifest has %s", key, strings.Join(args, " "), got, w)
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, manifest.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readManifest maps each key to its "<stdout-sha256> <stderr-sha256>
// <exit>" entry.
func readManifest(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	m := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 || len(f[0]) != 2*sha256.Size || len(f[1]) != 2*sha256.Size {
			t.Fatalf("%s:%d: want \"<stdout-sha256> <stderr-sha256> <exit> <key>\", got %q", goldenPath, line, sc.Text())
		}
		if _, err := strconv.Atoi(f[2]); err != nil {
			t.Fatalf("%s:%d: exit code: %v", goldenPath, line, err)
		}
		m[f[3]] = strings.Join(f[:3], " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}
