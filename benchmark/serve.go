package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// request is one POST /run.
type request struct {
	exp    string
	scale  int
	format string // "csv" or "json"
}

func (q request) run() expRun { return expRun{id: q.exp, scale: q.scale} }

// hotSet is what every serve-mix round warms and then hits.
var hotSet = []request{
	{"fig3b", 1, "csv"}, {"fig5a", 1, "csv"}, {"fig7a", 1, "csv"}, {"spc", 1, "csv"}, {"trees", 1, "json"},
}

// missKeys are the cold misses of a round: small sweeps, each requested once.
func missKeys() []request {
	var qs []request
	for _, exp := range []string{"fig3b", "fig3c", "fig3d", "fig7c"} {
		for scale := 2; scale <= 64; scale++ {
			qs = append(qs, request{exp, scale, "csv"})
		}
	}
	return qs
}

// burstKeys are the coalesced bursts of a round: both clients POST each
// key at once, so one computes it and the other joins the flight.
func burstKeys() []request {
	var qs []request
	for scale := 2; scale <= 64; scale++ {
		qs = append(qs, request{"fig7a", scale, "csv"})
	}
	return qs
}

// serveKeys returns every run serve-mix and the serve probe request.
func serveKeys() []expRun {
	var keys []expRun
	for _, qs := range [][]request{hotSet, missKeys(), burstKeys()} {
		for _, q := range qs {
			keys = append(keys, q.run())
		}
	}
	return keys
}

// mixSize is the number of hits, misses and bursts in one round.
type mixSize struct{ hits, misses, bursts int }

func (r *runner) mix() mixSize {
	if r.smoke {
		return mixSize{hits: 423, misses: 64, bursts: 4} // 500 requests with the warm-up
	}
	// Every fig7a sweep costs about 75 ms whatever its scale, so a round
	// bursts on 16 of the 63 keys, drawn by the seed, to stay near 3 s.
	return mixSize{hits: 36000, misses: len(missKeys()), bursts: 16}
}

// client is one closed-loop client: it sends its next request only after
// the previous answer arrived.
type client struct {
	tr   *http.Transport // one keep-alive connection of its own
	hc   *http.Client
	base string
	lane int
}

// answer is one completed request.
type answer struct {
	class string // X-Cache: hit, miss or coalesced
	start time.Time
	end   time.Time
	body  []byte
}

func (a answer) ms() float64 { return a.end.Sub(a.start).Seconds() * 1e3 }

// post issues q and reads the whole answer; a non-2xx status is an error.
func (c *client) post(q request) (answer, error) {
	return c.send(http.MethodPost, fmt.Sprintf("/run?experiment=%s&scale=%d&format=%s", q.exp, q.scale, q.format))
}

func (c *client) send(method, path string) (answer, error) {
	a := answer{start: now()}
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return a, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return a, err
	}
	a.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.end = now()
	if err != nil {
		return a, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return a, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(a.body))
	}
	a.class = resp.Header.Get("X-Cache")
	return a, nil
}

// tableCSV returns an answer's table as the CSV bytes spinbench prints, so
// that JSON answers check against the same golden hash as CSV ones.
func tableCSV(q request, body []byte) ([]byte, error) {
	if q.format != "json" {
		return body, nil
	}
	var t struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, fmt.Errorf("%v: answer is not JSON: %w", q.run(), err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(&b, strings.Join(row, ","))
	}
	return b.Bytes(), nil
}

// service is one fresh server with its two clients.
type service struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients [2]*client
}

func newService() *service {
	s := &service{srv: serve.New(serve.Config{Workers: 2, Version: "benchmark"})}
	s.ts = httptest.NewServer(s.srv)
	for i := range s.clients {
		tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
		s.clients[i] = &client{tr: tr, hc: &http.Client{Transport: tr}, base: s.ts.URL, lane: i}
	}
	return s
}

// close releases the connections, then stops the listener and the pool.
func (s *service) close() {
	for _, c := range s.clients {
		c.tr.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
}

// stats reads the counters of GET /stats.
type stats struct {
	Hits       float64 `json:"cache_hits"`
	Misses     float64 `json:"cache_misses"`
	Coalesced  float64 `json:"coalesced"`
	Workers    float64 `json:"workers"`
	QueueDepth float64 `json:"queue_depth"`
	Running    float64 `json:"running"`
	Points     float64 `json:"points_total"`
}

func (c *client) stats() (stats, error) {
	var st stats
	a, err := c.send(http.MethodGet, "/stats")
	if err == nil {
		err = json.Unmarshal(a.body, &st)
	}
	return st, err
}

// roundStats is what one serve-mix round measured.
type roundStats struct {
	refs                 []float64 // as in passStats
	factor               float64
	echo, echoFactor     float64 // the same for echoRef, which scales hits
	setup, wall, allocs  float64
	hit, miss, coalesced []float64 // request latencies by X-Cache class, ms
	depth, busy          []float64 // pool samples (traced rounds)
	final                stats
}

// ops returns every request's latency.
func (rs roundStats) ops() []float64 {
	return slices.Concat(rs.hit, rs.miss, rs.coalesced)
}

// phase runs each client's requests in order, both clients at once, and
// hands every answer to check on the client's goroutine. Every sample-th
// request of client 0 is followed by a /stats read when sample > 0.
func (r *runner) phase(s *service, ops [2][]request, id, parent int, label string, sample int,
	rs *roundStats, check func(q request, a answer) error) {
	sp := r.tr.begin("serve.phase", label, id, 0, parent)
	defer r.tr.end(sp)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hit, miss, co, depth, busy []float64
			for j, q := range ops[i] {
				a, err := c.post(q)
				if err == nil {
					err = check(q, a)
				}
				r.done(err)
				if err != nil {
					continue
				}
				r.tr.add("serve."+a.class, q.run().String(), id, c.lane, sp, a.start, a.end)
				switch a.class {
				case "hit":
					hit = append(hit, a.ms())
				case "miss":
					miss = append(miss, a.ms())
				case "coalesced":
					co = append(co, a.ms())
				}
				if sample > 0 && i == 0 && j%sample == sample-1 {
					st, err := c.stats()
					r.done(err)
					if err == nil && st.Workers > 0 {
						depth = append(depth, st.QueueDepth)
						busy = append(busy, st.Running/st.Workers)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			rs.hit = append(rs.hit, hit...)
			rs.miss = append(rs.miss, miss...)
			rs.coalesced = append(rs.coalesced, co...)
			rs.depth = append(rs.depth, depth...)
			rs.busy = append(rs.busy, busy...)
		}()
	}
	wg.Wait()
}

// split deals qs to the two clients alternately.
func split(qs []request) [2][]request {
	var out [2][]request
	for i, q := range qs {
		out[i%2] = append(out[i%2], q)
	}
	return out
}

// serveRound runs one round on a fresh server: set-up (server start and
// hot-set warm-up), then hits, cold misses and coalesced bursts in an order
// shuffled by the seed. Traced rounds also sample the pool from /stats.
func (r *runner) serveRound(round int) roundStats {
	var rs roundStats
	size := r.mix()
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(round)))
	id := r.id()
	root := r.root("serve.round", fmt.Sprintf("#%d", round), id)
	defer r.tr.end(root)
	sample := 0
	if r.tr != nil {
		sample = 10
	}

	runtime.GC() // start every round from the same heap, outside the timing
	rs.refs = []float64{r.ref.run()}
	rs.echo = r.echo.run()
	t0 := now()
	sp := r.tr.begin("serve.setup", "", id, 0, root)
	s := newService()
	defer s.close()
	var mu sync.Mutex
	first := make(map[request][]byte)
	r.phase(s, split(hotSet), id, sp, "warm-up", 0, &roundStats{}, func(q request, a answer) error {
		mu.Lock()
		first[q] = a.body
		mu.Unlock()
		return r.verifyAnswer(q, a)
	})
	r.tr.end(sp)
	rs.setup = since(t0)

	hits := make([]request, size.hits)
	for i := range hits {
		hits[i] = hotSet[rng.Intn(len(hotSet))]
	}
	misses := missKeys()
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	bursts := burstKeys()
	rng.Shuffle(len(bursts), func(i, j int) { bursts[i], bursts[j] = bursts[j], bursts[i] })

	m0 := mallocs()
	t1 := now()
	// Between phases, time the reference kernel every refEvery seconds,
	// outside the round's timing, as a pass does between points.
	lastRef, paused := t1, time.Duration(0)
	between := func() {
		if t := now(); t.Sub(lastRef).Seconds() >= refEvery {
			rs.refs = append(rs.refs, r.ref.run())
			lastRef = now()
			paused += lastRef.Sub(t)
		}
	}
	r.phase(s, split(hits), id, root, "hits", 0, &rs, func(q request, a answer) error {
		if !bytes.Equal(a.body, first[q]) {
			return fmt.Errorf("%v: cached answer differs from the first answer", q.run())
		}
		return nil
	})
	between()
	r.phase(s, split(misses[:size.misses]), id, root, "misses", sample, &rs, r.verifyAnswer)
	for _, q := range bursts[:size.bursts] {
		between()
		r.phase(s, [2][]request{{q}, {q}}, id, root, "burst", sample, &rs, r.verifyAnswer)
	}
	rs.wall = now().Sub(t1.Add(paused)).Seconds()
	rs.allocs = float64(mallocs() - m0)
	if r.tr != nil {
		st, err := s.clients[0].stats()
		r.done(err)
		rs.final = st
	}
	return rs
}

// verifyAnswer checks an answer against its golden hash.
func (r *runner) verifyAnswer(q request, a answer) error {
	table, err := tableCSV(q, a.body)
	if err != nil {
		return err
	}
	return r.verify(q.run(), table)
}

// serveRounds runs round first and then more, until the run's seconds
// (scaled by frac) are spent — one round only in a smoke run — and scales
// every round's times by its host factors, as normalize does for passes:
// cache hits by the echo factor, everything else by the kernel's.
func (r *runner) serveRounds(first int, frac float64) []roundStats {
	all := []roundStats{r.serveRound(first)}
	start := now()
	for round := first + 1; !r.smoke && since(start) < r.seconds*frac; round++ {
		all = append(all, r.serveRound(round))
	}
	runtime.GC()
	last, lastEcho := r.ref.run(), r.echo.run()
	for i := range all {
		after, afterEcho := last, lastEcho
		if i+1 < len(all) {
			after, afterEcho = all[i+1].refs[0], all[i+1].echo
		}
		rs := &all[i]
		rs.factor = hostFactor(append(rs.refs, after)...)
		rs.echoFactor = echoFactor(rs.echo, afterEcho)
		rs.setup *= rs.factor
		rs.wall *= rs.factor
		scale(rs.hit, rs.echoFactor)
		scale(rs.miss, rs.factor)
		scale(rs.coalesced, rs.factor)
	}
	return all
}

func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// serveEndToEnd runs a warm-up round, then timed rounds for the run's
// seconds, and reports the end-to-end metrics plus per-class latencies.
// Set-up is every round's, the warm-up's included.
func (r *runner) serveEndToEnd(m *metrics) ([]info, error) {
	r.echo = newEchoRef()
	defer r.echo.close()
	all := r.serveRounds(0, 1)
	var setups []float64
	for _, rs := range all {
		setups = append(setups, rs.setup)
	}
	if !r.smoke {
		all = all[1:] // a smoke run makes one round only, which is also the warm-up
	}
	var walls, raw, factors, echoFactors, allocs, ops, hit, miss, co []float64
	for _, rs := range all {
		walls = append(walls, rs.wall)
		raw = append(raw, rs.wall/rs.factor)
		factors = append(factors, rs.factor)
		echoFactors = append(echoFactors, rs.echoFactor)
		allocs = append(allocs, rs.allocs)
		ops = append(ops, rs.ops()...)
		hit = append(hit, rs.hit...)
		miss = append(miss, rs.miss...)
		co = append(co, rs.coalesced...)
	}
	m.set("regen_s", median(walls), len(walls))
	m.set("allocs_per_regen", median(allocs), len(allocs))
	m.set("setup_s", median(setups), len(setups))
	m.set("rss_peak_mb", peakRSSMB(), 0)
	m.set("op_geomean_ms", geomean(ops), len(ops))
	for i := range hit {
		hit[i] *= 1e3
	}
	infos := []info{{"regen_wall_s", "s", median(raw), len(raw)}, {"host_factor", "ratio", median(factors), len(factors)},
		{"echo_factor", "ratio", median(echoFactors), len(echoFactors)}}
	infos = timing(infos, "serve_hit_us", "us", hit)
	infos = timing(infos, "serve_miss_ms", "ms", miss)
	infos = timing(infos, "serve_coalesced_ms", "ms", co)
	var wall float64
	for _, w := range walls {
		wall += w
	}
	infos = append(infos, info{name: "serve_rps", unit: "1/s", v: float64(len(ops)) / wall, n: len(walls)})
	return infos, nil
}

// serveTraced is serve-mix's traced run: untraced rounds for a baseline,
// then traced, profiled rounds that also sample the pool and read the
// service counters.
func (r *runner) serveTraced(tr *tracer, profPath string, m *metrics) (base, traced []float64, err error) {
	r.echo = newEchoRef()
	defer r.echo.close()
	r.serveRound(0)
	plain := r.serveRounds(1, 0.5)
	stop, err := startProfile(profPath)
	if err != nil {
		return nil, nil, err
	}
	r.tr = tr
	rounds := r.serveRounds(1+len(plain), 0.5)
	if err := stop(); err != nil {
		return nil, nil, err
	}
	for _, rs := range plain {
		base = append(base, rs.wall)
	}
	var depth, busy []float64
	var st stats
	for _, rs := range rounds {
		traced = append(traced, rs.wall)
		depth = append(depth, rs.depth...)
		busy = append(busy, rs.busy...)
		st.Hits += rs.final.Hits
		st.Misses += rs.final.Misses
		st.Coalesced += rs.final.Coalesced
		st.Points += rs.final.Points
	}
	n := float64(len(rounds))
	m.set("bench.points", st.Points/n, len(rounds))
	m.set("bench.pool.queue_depth_mean", mean(depth), len(depth))
	m.set("bench.pool.busy_frac", mean(busy), len(busy))
	m.set("serve.hit_ratio", st.Hits/(st.Hits+st.Misses+st.Coalesced), 0)
	m.set("serve.coalesced", st.Coalesced/n, len(rounds))
	return base, traced, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probeServe measures what the service adds to a request: a cache hit
// against GET /healthz on the same connection, and a cold miss against
// running the same sweep directly on a pool of the same size.
func (r *runner) probeServe(m *metrics, div int) error {
	s := newService()
	defer s.close()
	c := s.clients[0]
	hot := request{"fig3b", 1, "csv"}
	a, err := c.post(hot)
	if err == nil {
		err = r.verifyAnswer(hot, a)
	}
	if err != nil {
		return err
	}
	var hit, health []float64
	for i := 0; i < 2000/div; i++ {
		a, err := c.post(hot)
		if err != nil {
			return err
		}
		hit = append(hit, a.ms())
		if a, err = c.send(http.MethodGet, "/healthz"); err != nil {
			return err
		}
		health = append(health, a.ms())
	}
	var miss, direct []float64
	pool := bench.NewPool(2)
	defer pool.Close()
	for scale := 2; scale < 2+max(20/div, 4); scale++ {
		q := request{"fig3c", scale, "csv"}
		a, err := c.post(q)
		if err == nil {
			err = r.verifyAnswer(q, a)
		}
		if err != nil {
			return err
		}
		miss = append(miss, a.ms())
		exp, _ := bench.FindExperiment(q.exp)
		t0 := now()
		if _, err := exp.Build(q.scale).Run(bench.RunOptions{Pool: pool}); err != nil {
			return err
		}
		direct = append(direct, since(t0)*1e3)
	}
	m.set("serve.hit_overhead_us", (median(hit)-median(health))*1e3, len(hit))
	m.set("serve.miss_overhead_ms", median(miss)-median(direct), len(miss))
	return nil
}
