package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// now reads the host clock. It is the benchmark's only wall-clock read:
// every duration it reports is the difference of two now() values.
func now() time.Time {
	return time.Now() //simlint:wallclock-ok the benchmark measures host time; no simulated value depends on it
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json's
// order. Every workload produces all of them: a pass is one regeneration of
// the workload's experiment set (serve-mix: one round of requests against a
// fresh server) and an operation is one measurement point of a sweep
// (serve-mix: one HTTP request). Operation latency is summarized by its
// geometric mean: the operations of a workload span four decades, and a
// median that falls between two clusters of them jumps from run to run.
var endToEnd = []spec{
	{"regen_s", "s"},
	{"allocs_per_regen", "count"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"op_geomean_ms", "ms"},
}

// profileLayers are the ARCHITECTURE.md layers the CPU profile's flat
// samples are grouped into; samples of any other package count as other.
var profileLayers = []string{"sim", "netsim", "portals", "core", "mpisim", "raidsim", "datatype", "membus", "hostsim", "bench", "serve", "runtime", "other"}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json's order.
// Times come from the layer probes, which run identically in every traced
// run; counts and shares come from the workload's own passes and are 0 where
// the workload never reaches that layer.
var perLayer = func() []spec {
	s := []spec{
		{"sim.hold_ns.q64", "ns"},
		{"sim.hold_ns.q4096", "ns"},
		{"netsim.send_ns_per_pkt", "ns"},
		{"netsim.new_s.n1024", "s"},
		{"netsim.lost", "count"},
		{"netsim.delayed", "count"},
		{"netsim.retransmits", "count"},
		{"netsim.retrans_failures", "count"},
		{"netsim.lost_per_retransmit", "ratio"},
		{"portals.setup_s.n1024", "s"},
		{"portals.put_us.8B", "us"},
		{"portals.put_us.64KiB", "us"},
		{"core.handler_ns_per_pkt", "ns"},
		{"datatype.scatter_ns_per_pkt", "ns"},
		{"raidsim.new_s", "s"},
		{"raidsim.replay_us_per_op", "us"},
		{"raidsim.ops", "count"},
		{"apps.programs_s", "s"},
		{"apps.calibrate_self_s", "s"},
		{"mpisim.new_s", "s"},
		{"mpisim.reset_s", "s"},
		{"mpisim.run_s", "s"},
		{"mpisim.replays", "count"},
		{"mpisim.events", "count"},
		{"mpisim.messages", "count"},
		{"mpisim.ns_per_event", "ns"},
		{"mpisim.ns_per_event.impaired", "ns"},
		{"mpisim.lp2_over_serial", "ratio"},
		{"bench.points", "count"},
		{"bench.pool.queue_depth_mean", "count"},
		{"bench.pool.busy_frac", "ratio"},
		{"serve.hit_overhead_us", "us"},
		{"serve.miss_overhead_ms", "ms"},
		{"serve.hit_ratio", "ratio"},
		{"serve.coalesced", "count"},
		{"trace.overhead_frac", "ratio"},
	}
	for _, l := range profileLayers {
		s = append(s, spec{"layer." + l + ".self_frac", "ratio"})
	}
	return s
}()

// declared returns the metrics a traced or untraced run prints.
func declared(traced bool) []spec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// metric is one reported value. Samples is how many measurements the
// value summarizes (a median's sample count); 0 marks a count or ratio.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	name  string
	n     int
}

// metrics collects a run's values by name.
type metrics struct{ list []metric }

// set records a value with the number of samples behind it.
func (m *metrics) set(name string, v float64, n int) {
	m.list = append(m.list, metric{Value: v, name: name, n: n})
}

// info is a line of the human-readable report that is not one of the
// benchmark's declared metrics (per-class latencies, error rate, accuracy).
type info struct {
	name, unit string
	v          float64
	n          int
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	list      []metric
	infos     []info
}

// finish orders the collected metrics by want, fills in their units, and
// fails if the set differs from want in any name.
func (m *metrics) finish(want []spec) ([]metric, error) {
	out := make([]metric, 0, len(want))
	for _, s := range want {
		i := slices.IndexFunc(m.list, func(x metric) bool { return x.name == s.name })
		if i < 0 {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		x := m.list[i]
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, x.Value)
		}
		x.Unit = s.unit
		out = append(out, x)
	}
	if len(out) != len(m.list) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(m.list), len(out))
	}
	return out, nil
}

// printResult writes the human-readable report and then the JSON line.
func printResult(w io.Writer, workload string, res result) {
	for _, m := range res.list {
		fmt.Fprintf(w, "%-12s %-32s %14.6g %-6s %s\n", workload, m.name, m.Value, m.Unit, samples(m.n))
	}
	for _, in := range res.infos {
		fmt.Fprintf(w, "%-12s %-32s %14.6g %-6s %s  (not a declared metric)\n", workload, in.name, in.v, in.unit, samples(in.n))
	}
	res.Metrics = make(map[string]metric, len(res.list))
	for _, m := range res.list {
		res.Metrics[m.name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Every field is a plain number, string or bool; Marshal cannot fail.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func samples(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("n=%d", n)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its label; ok is false when none has.
func tail(xs []float64) (label string, v float64, ok bool) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return p.label, quantile(xs, p.q), true
		}
	}
	return "", 0, false
}

// timing appends the median and the highest well-sampled tail of xs to the
// report under name.
func timing(infos []info, name, unit string, xs []float64) []info {
	infos = append(infos, info{name + "_p50", unit, median(xs), len(xs)})
	if label, v, ok := tail(xs); ok {
		infos = append(infos, info{name + "_" + label, unit, v, len(xs)})
	}
	return infos
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
