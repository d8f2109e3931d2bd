package serve

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

	"repro/internal/bench"
)

// update rewrites the golden manifest from the current code:
//
//	go test ./internal/serve -run TestGoldenManifest -update
//
// A change that rewrites it must say which bytes moved and why.
var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const goldenPath = "testdata/golden.sha256"

// goldenEntry is one manifest line: the SHA-256 of a JSON response body
// and the response's HTTP status.
type goldenEntry struct {
	body   string
	status int
}

func (g goldenEntry) String() string { return fmt.Sprintf("body %s, status %d", g.body, g.status) }

// readManifest parses "<body-sha256> <status> <experiment>/<scale>" lines.
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
		if len(f) != 3 || len(f[0]) != 2*sha256.Size {
			t.Fatalf("%s:%d: want \"<body-sha256> <status> <experiment>/<scale>\", got %q", goldenPath, line, sc.Text())
		}
		status, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("%s:%d: status: %v", goldenPath, line, err)
		}
		m[f[2]] = goldenEntry{body: f[0], status: status}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenManifest pins every byte of spinserve's JSON rendering: for
// each registered experiment, the SHA-256 of the body of
// POST /run?experiment=<id>&scale=4&format=json, served through ServeHTTP
// by a two-worker server with a fixed version stamp, and the response's
// status must match testdata/golden.sha256. An experiment whose sweep has
// a fixed size (MaxScale 1, which rejects scale=4) is asked at scale=1.
// The CLI manifests never see this rendering (its field names,
// indentation, key and fault block), and every point runs on pool
// workers, Table 5c's overlapped replays included.
func TestGoldenManifest(t *testing.T) {
	var want map[string]goldenEntry
	if !*update {
		want = readManifest(t)
	}
	s := newTestServer(t)
	var manifest bytes.Buffer
	manifest.WriteString("# spinserve golden manifest: <json-body-sha256> <http-status> <experiment>/<scale>\n")
	manifest.WriteString("# regenerate: go test ./internal/serve -run TestGoldenManifest -update\n")
	for _, exp := range bench.Experiments() {
		scale := min(4, exp.MaxScale)
		key := fmt.Sprintf("%s/%d", exp.ID, scale)
		target := fmt.Sprintf("/run?experiment=%s&scale=%d&format=json", exp.ID, scale)
		w := do(t, s, "POST", target, "")
		sum := sha256.Sum256(w.Body.Bytes())
		got := goldenEntry{body: hex.EncodeToString(sum[:]), status: w.Code}
		fmt.Fprintf(&manifest, "%s %d %s\n", got.body, got.status, key)
		if *update {
			continue
		}
		if g, ok := want[key]; !ok {
			t.Errorf("%s (POST %s): no manifest entry (regenerate with -update)", key, target)
		} else if got != g {
			t.Errorf("%s (POST %s): got %v; manifest has %v", key, target, got, g)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, manifest.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
