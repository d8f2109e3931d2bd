package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs one pass of mpi-replay and faulty-net at their widest
// subsample, one serve-mix round of 500 requests, and one traced
// nic-offload run (its passes at the widest subsample, and every probe),
// and checks that each prints exactly the metrics BENCHMARK.json declares,
// with their units, and that no operation failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	type smoke struct {
		name, workload string
		traced         bool
	}
	// The slowest runs first: two run at a time on a 2-core budget.
	runs := []smoke{
		{"faulty-net", "faulty-net", false},
		{"nic-offload-traced", "nic-offload", true},
		{"mpi-replay", "mpi-replay", false},
		{"serve-mix", "serve-mix", false},
	}
	for _, s := range runs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			w, _ := findWorkload(s.workload)
			var log bytes.Buffer
			r := newRunner(gold, 7, 1e-9, true, &log)
			dir, want := "", decl.EndToEnd
			if s.traced {
				dir, want = t.TempDir(), decl.PerLayer
			}
			res, err := r.measure(w, dir)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.Bytes())
			}
			var out bytes.Buffer
			printResult(&out, w.name, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, log.Bytes())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
				if !strings.Contains(out.String(), " "+d.Name+" ") {
					t.Errorf("metric %s missing from the report lines", d.Name)
				}
			}
			if !strings.Contains(out.String(), " error_rate ") {
				t.Errorf("report has no error_rate line:\n%s", out.Bytes())
			}
		})
	}
}
