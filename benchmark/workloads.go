package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// workload is one fixed set of inputs. Pass-based workloads regenerate the
// experiments pass returns, over and over; serve-mix drives the experiment
// service instead (pass is nil). BENCHMARK.json records why each exists.
type workload struct {
	name string
	// pass returns the runs of pass i (pass 0 is the warm-up) for a seed;
	// smoke shrinks every experiment to its widest subsample.
	pass func(seed int64, i int, smoke bool) []expRun
}

// impairSeeds is how many impairment seeds faulty-net draws from. The set is
// finite so that every impaired output has a golden hash.
const impairSeeds = 8

func workloads() []workload {
	return []workload{
		// Deep event queues, packet walks and the mpisim protocol; no
		// portals, core or serve.
		{name: "mpi-replay", pass: fixed(expRun{"table5c", 2, ""})},
		// Portals matching, HPU dispatch, datatype, membus, raidsim and
		// cluster set-up on shallow queues; no mpisim.
		{name: "nic-offload", pass: fixed(
			expRun{"fig3b", 1, ""}, expRun{"fig3c", 1, ""}, expRun{"fig3d", 1, ""},
			expRun{"fig5a", 1, ""}, expRun{"fig7a", 1, ""}, expRun{"fig7c", 1, ""},
			expRun{"spc", 1, ""}, expRun{"noise", 1, ""}, expRun{"bcast-store", 1, ""},
			expRun{"trees", 1, ""})},
		// The same layers on their recovery path.
		{name: "faulty-net", pass: faultyPass},
		// HTTP, the result cache, singleflight and the pool.
		{name: "serve-mix"},
	}
}

// fixed returns a pass function that runs the same experiments every pass.
func fixed(runs ...expRun) func(int64, int, bool) []expRun {
	return func(_ int64, _ int, smoke bool) []expRun { return sized(runs, smoke) }
}

// faultyPass is one faulty-net pass: ftbcast with its built-in fault
// scenario, fig5a/fig7a/trees under jitter, and table5c under loss and
// jitter. Portals experiments get jitter only: they have no recovery layer,
// so a lost packet stalls them (fig3b under loss=0.01 never completes its
// RDMA ping-pong). Each pass draws its impairment seed from the run seed and
// the pass index.
func faultyPass(seed int64, i int, smoke bool) []expRun {
	s := 1 + ((seed+int64(i))%impairSeeds+impairSeeds)%impairSeeds
	jitter := fmt.Sprintf("jitter=2us,seed=%d", s)
	return sized([]expRun{
		{"ftbcast", 1, ""},
		{"fig5a", 1, jitter},
		{"fig7a", 1, jitter},
		{"trees", 1, jitter},
		{"table5c", 8, fmt.Sprintf("loss=0.001,jitter=1us,seed=%d", s)},
	}, smoke)
}

// sized returns runs, or for a smoke run the same runs at each experiment's
// widest subsample.
func sized(runs []expRun, smoke bool) []expRun {
	if !smoke {
		return runs
	}
	out := make([]expRun, len(runs))
	for i, k := range runs {
		exp, _ := bench.FindExperiment(k.id)
		k.scale = exp.MaxScale
		out[i] = k
	}
	return out
}

// keys returns every run the workload can make, at full and smoke size.
func (w workload) keys() []expRun {
	if w.pass == nil {
		return serveKeys()
	}
	var keys []expRun
	for _, smoke := range []bool{false, true} {
		for i := 0; i < impairSeeds; i++ {
			keys = append(keys, w.pass(0, i, smoke)...)
		}
	}
	return keys
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner holds one run's settings and its operation counts.
type runner struct {
	gold    map[string]string
	seed    int64
	seconds float64
	smoke   bool
	log     io.Writer
	tr      *tracer // nil while untraced
	ref     *refKernel
	echo    *echoRef // serve-mix only

	mu        sync.Mutex
	attempted int
	failed    int
	nextID    int
	roots     []int   // root span of every traced pass, round and probe
	spdupErr  float64 // table5c's mean |spdup - paper_spdup|, in points
}

func newRunner(gold map[string]string, seed int64, seconds float64, smoke bool, log io.Writer) *runner {
	return &runner{gold: gold, seed: seed, seconds: seconds, smoke: smoke, log: log, ref: newRefKernel()}
}

// done counts one attempted operation and, when err is non-nil, one failed
// one. Failures are reported on the log and never stop the run.
func (r *runner) done(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.log, "benchmark: FAIL: %v\n", err)
		}
	}
}

// id returns a fresh span id.
func (r *runner) id() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// root opens a root span and remembers it for the end-of-run nesting check.
func (r *runner) root(name, label string, id int) int {
	sp := r.tr.begin(name, label, id, 0, -1)
	if sp >= 0 {
		r.mu.Lock()
		r.roots = append(r.roots, sp)
		r.mu.Unlock()
	}
	return sp
}

// verify compares an output against its golden hash.
func (r *runner) verify(k expRun, csv []byte) error {
	want, ok := r.gold[k.String()]
	if !ok {
		return fmt.Errorf("%v: no golden hash; regenerate testdata/golden.sha256", k)
	}
	if got := hashHex(csv); got != want {
		return fmt.Errorf("%v: output sha256 %s, golden %s", k, got[:12], want[:12])
	}
	return nil
}

// measure runs workload w and returns its result: end-to-end metrics, or
// per-layer metrics with a Chrome trace and CPU profile in traceDir.
func (r *runner) measure(w workload, traceDir string) (result, error) {
	var m metrics
	var infos []info
	var err error
	want := endToEnd
	if traceDir == "" {
		if w.pass != nil {
			infos, err = r.passEndToEnd(w, &m)
		} else {
			infos, err = r.serveEndToEnd(&m)
		}
	} else {
		want = perLayer
		infos, err = r.perLayer(w, traceDir, &m)
	}
	if err != nil {
		return result{}, err
	}
	list, err := m.finish(want)
	if err != nil {
		return result{}, err
	}
	if r.attempted > 0 {
		infos = append(infos, info{name: "error_rate", unit: "ratio", v: float64(r.failed) / float64(r.attempted)})
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, list: list, infos: infos}, nil
}

// passStats is what one pass measured. Times are in reference-host units
// once normalize has run: wall and ops scaled by the pass's host factor.
type passStats struct {
	refs    []float64 // reference kernel seconds: before the pass, then within it
	lastRef time.Time // when the last kernel run within the pass ended
	factor  float64   // host factor applied by normalize
	wall    float64   // seconds
	allocs  float64   // heap allocations
	ops     []float64 // per-point latencies, ms
	faults  netsim.FaultStats
}

// normalize scales each pass by the host factor of the kernel runs before,
// within and just after it (one more kernel run follows the last pass).
func (r *runner) normalize(ps []passStats) {
	runtime.GC()
	last := r.ref.run()
	for i := range ps {
		after := last
		if i+1 < len(ps) {
			after = ps[i+1].refs[0]
		}
		f := hostFactor(append(ps[i].refs, after)...)
		ps[i].factor = f
		ps[i].wall *= f
		for j := range ps[i].ops {
			ps[i].ops[j] *= f
		}
	}
}

// passes runs pass first and then more, until the run's seconds (scaled by
// frac) are spent — one pass only in a smoke run — and normalizes them.
func (r *runner) passes(w workload, first int, frac float64) []passStats {
	all := []passStats{r.pass(w, first)}
	start := now()
	for i := first + 1; !r.smoke && since(start) < r.seconds*frac; i++ {
		all = append(all, r.pass(w, i))
	}
	r.normalize(all)
	return all
}

// coldRuns is how many fresh processes a pass-based workload's set-up is
// timed in: the run's own warm-up pass, and the first pass of each of
// coldRuns-1 child processes. setup_s is their median.
const coldRuns = 3

// coldPass makes pass 0 of w, the first pass of a fresh process, and
// reports its time as setup_s.
func (r *runner) coldPass(w workload) (result, error) {
	ps := []passStats{r.pass(w, 0)}
	r.normalize(ps)
	var m metrics
	m.set("setup_s", ps[0].wall, 1)
	list, err := m.finish([]spec{{"setup_s", "s"}})
	if err != nil {
		return result{}, err
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, list: list}, nil
}

// coldSetups times set-up again in coldRuns-1 child processes, one after
// another, and adds their operations to the run's counts.
func (r *runner) coldSetups(w workload) ([]float64, error) {
	var setups []float64
	for i := 1; i < coldRuns; i++ {
		res, err := child(nil, r.log, "-workload", w.name, "-seed", strconv.FormatInt(r.seed, 10), "-cold-pass")
		if err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		r.mu.Lock()
		r.attempted += res.Attempted
		r.failed += res.Failed
		r.mu.Unlock()
		setups = append(setups, res.Metrics["setup_s"].Value)
	}
	return setups, nil
}

// passEndToEnd runs a warm-up pass, then timed passes for the run's
// seconds, then the cold passes of coldSetups, and reports the end-to-end
// metrics.
func (r *runner) passEndToEnd(w workload, m *metrics) ([]info, error) {
	all := r.passes(w, 0, 1)
	setups := []float64{all[0].wall}
	if !r.smoke { // a smoke run makes one pass only, which is also the warm-up
		all = all[1:]
		cold, err := r.coldSetups(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cold...)
	}
	var walls, raw, factors, allocs, ops []float64
	for _, ps := range all {
		walls = append(walls, ps.wall)
		raw = append(raw, ps.wall/ps.factor)
		factors = append(factors, ps.factor)
		allocs = append(allocs, ps.allocs)
		ops = append(ops, ps.ops...)
	}
	m.set("regen_s", median(walls), len(walls))
	m.set("allocs_per_regen", median(allocs), len(allocs))
	m.set("setup_s", median(setups), len(setups))
	m.set("rss_peak_mb", peakRSSMB(), 0)
	m.set("op_geomean_ms", geomean(ops), len(ops))
	infos := []info{{"regen_wall_s", "s", median(raw), len(raw)}, {"host_factor", "ratio", median(factors), len(factors)}}
	infos = timing(infos, "op_ms", "ms", ops)
	if r.spdupErr > 0 {
		infos = append(infos, info{name: "paper_spdup_err_pp", unit: "pp", v: r.spdupErr})
	}
	return infos, nil
}

// pass runs pass i of w, recording spans when traced.
func (r *runner) pass(w workload, i int) passStats {
	id := r.id()
	root := r.root("bench.pass", fmt.Sprintf("%s#%d", w.name, i), id)
	var ps passStats
	runtime.GC() // start every pass from the same heap, outside the timing
	ps.refs = []float64{r.ref.run()}
	m0 := mallocs()
	t0 := now()
	ps.lastRef = t0
	var paused time.Duration
	for _, k := range w.pass(r.seed, i, r.smoke) {
		paused += r.regen(k, id, root, &ps)
	}
	ps.wall = now().Sub(t0.Add(paused)).Seconds()
	ps.allocs = float64(mallocs() - m0)
	r.tr.end(root)
	return ps
}

// regen runs one experiment, checks its output, and adds what it measured
// to ps. Traced table5c runs go through the layer-by-layer replay so their
// spans reach into apps and mpisim; everything else runs through the
// registry, as spinbench does. Between measurement points it times the
// reference kernel every refEvery seconds and returns the time that took,
// which the pass leaves out of its own.
func (r *runner) regen(k expRun, id, parent int, ps *passStats) (paused time.Duration) {
	sp := r.tr.begin("bench.exp", k.String(), id, 0, parent)
	defer r.tr.end(sp)
	var out []byte
	var faults netsim.FaultStats
	var err error
	if r.tr != nil && k.id == "table5c" {
		var rs replayStats
		out, rs, err = r.replayTable5c(k, id, sp)
		faults = rs.faults
		ps.ops = append(ps.ops, rs.points...)
	} else {
		last := now()
		out, faults, err = regenerate(k, func(done, total int) {
			t := now()
			ps.ops = append(ps.ops, t.Sub(last).Seconds()*1e3)
			r.tr.add("bench.point", "", id, 0, sp, last, t)
			last = t
			if t.Sub(ps.lastRef).Seconds() >= refEvery {
				ps.refs = append(ps.refs, r.ref.run())
				ps.lastRef = now()
				paused += ps.lastRef.Sub(t)
				r.tr.add("bench.ref", "", id, 0, sp, t, ps.lastRef)
				last = ps.lastRef
			}
		})
	}
	if err == nil {
		err = r.verify(k, out)
	}
	if err == nil && k.id == "table5c" && k.impair == "" {
		r.spdupErr, err = spdupError(out)
	}
	r.done(err)
	ps.faults.Add(faults)
	return paused
}

// spdupError returns the mean absolute difference, in percentage points,
// between table5c's simulated and paper speedups.
func spdupError(table []byte) (float64, error) {
	rows, err := csv.NewReader(bytes.NewReader(table)).ReadAll()
	if err != nil || len(rows) < 2 {
		return 0, fmt.Errorf("table5c: unreadable output: %v", err)
	}
	col := func(name string) int {
		for i, h := range rows[0] {
			if h == name {
				return i
			}
		}
		return -1
	}
	sim, paper := col("spdup"), col("paper_spdup")
	if sim < 0 || paper < 0 {
		return 0, fmt.Errorf("table5c: no spdup/paper_spdup columns in %q", rows[0])
	}
	pct := func(s string) (float64, error) { return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64) }
	var sum float64
	for _, row := range rows[1:] {
		a, err1 := pct(row[sim])
		b, err2 := pct(row[paper])
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("table5c: unreadable speedups in %q", row)
		}
		sum += math.Abs(a - b)
	}
	return sum / float64(len(rows)-1), nil
}

// perLayer is the traced run: untraced passes for a baseline, traced and
// profiled passes for the layer attribution, then the layer probes.
func (r *runner) perLayer(w workload, dir string, m *metrics) ([]info, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, w.name+".cpu.pprof")
	tracePath := filepath.Join(dir, w.name+".trace.json")
	tr := newTracer()
	var infos []info
	var base, traced []float64
	if w.pass != nil {
		if !r.smoke {
			r.pass(w, 0) // warm-up
		}
		plain := r.passes(w, 1, 0.5)
		stop, err := startProfile(profPath)
		if err != nil {
			return nil, err
		}
		r.tr = tr
		all := r.passes(w, 1+len(plain), 0.5)
		if err := stop(); err != nil {
			return nil, err
		}
		for _, ps := range plain {
			base = append(base, ps.wall)
		}
		var faults netsim.FaultStats
		points := 0
		for _, ps := range all {
			traced = append(traced, ps.wall)
			faults.Add(ps.faults)
			points += len(ps.ops)
		}
		n := float64(len(traced))
		m.set("netsim.lost", float64(faults.Lost)/n, len(traced))
		m.set("netsim.delayed", float64(faults.Delayed)/n, len(traced))
		m.set("netsim.retransmits", float64(faults.Retransmits)/n, len(traced))
		m.set("netsim.retrans_failures", float64(faults.RetransFails)/n, len(traced))
		ratio := 0.0
		if faults.Retransmits > 0 {
			ratio = float64(faults.Lost) / float64(faults.Retransmits)
		}
		m.set("netsim.lost_per_retransmit", ratio, 0)
		m.set("bench.points", float64(points)/n, len(traced))
		for _, name := range []string{"bench.pool.queue_depth_mean", "bench.pool.busy_frac", "serve.hit_ratio", "serve.coalesced"} {
			m.set(name, 0, 0)
		}
	} else {
		var err error
		if base, traced, err = r.serveTraced(tr, profPath, m); err != nil {
			return nil, err
		}
		for _, name := range []string{"netsim.lost", "netsim.delayed", "netsim.retransmits", "netsim.retrans_failures", "netsim.lost_per_retransmit"} {
			m.set(name, 0, 0)
		}
	}
	m.set("trace.overhead_frac", median(traced)/median(base)-1, len(traced))
	infos = append(infos, r.layerTable(tr)...)
	shares, err := layerShares(profPath)
	if err != nil {
		return nil, err
	}
	for i, l := range profileLayers {
		m.set("layer."+l+".self_frac", shares[i], 0)
	}
	if err := r.probes(m); err != nil {
		return nil, err
	}
	r.done(errors.Join(tr.checkPasses(r.roots)...))
	return infos, tr.writeChrome(tracePath)
}

// layerTable reports, per traced pass, the self time of the spans by layer
// and the time of each experiment.
func (r *runner) layerTable(tr *tracer) []info {
	var ids []int
	for _, root := range r.roots {
		ids = append(ids, tr.spans[root].id)
	}
	if len(ids) == 0 {
		return nil
	}
	_, byLayer := tr.selfByName(ids...)
	n := float64(len(ids))
	var infos []info
	for i, l := range byLayer.names {
		infos = append(infos, info{"span." + l + ".self_s", "s", byLayer.vals[i].Seconds() / n, len(ids)})
	}
	exps := tr.timeByExperiment(ids)
	for i, k := range exps.names {
		infos = append(infos, info{"bench.exp_s." + k, "s", exps.vals[i].Seconds() / n, len(ids)})
	}
	return infos
}
