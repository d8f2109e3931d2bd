package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// startProfile starts the CPU profiler writing to path; stop ends it and
// closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// layerShares groups the flat samples of `go tool pprof -top` by package
// into profileLayers and returns each layer's share of all samples, in
// profileLayers order.
func layerShares(path string) ([]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	flat := make([]time.Duration, len(profileLayers))
	var total time.Duration
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue // the column header
		}
		flat[slices.Index(profileLayers, layerOf(f[5]))] += d
		total += d
	}
	shares := make([]float64, len(flat))
	if total == 0 {
		return shares, nil
	}
	for i, d := range flat {
		shares[i] = d.Seconds() / total.Seconds()
	}
	return shares, nil
}

// layerOf maps a profiled function, e.g. "repro/internal/sim.(*Engine).Step",
// to its layer: the repo package's name when it is one of profileLayers,
// runtime for the Go runtime, and other for everything else.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok && slices.Contains(profileLayers, name) {
		return name
	}
	return "other"
}
