package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// newTestServer returns a small-pool server with a fixed version stamp so
// cache keys are reproducible across test runs.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 2, Version: "test"})
	t.Cleanup(s.Close)
	return s
}

// do drives one request through the real handler stack.
func do(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// stats fetches /stats as a decoded map.
func stats(t *testing.T, s *Server) map[string]any {
	t.Helper()
	w := do(t, s, "GET", "/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", w.Code, w.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	return m
}

// TestRepeatRequestByteIdenticalCacheHit is the service's core guarantee:
// the second identical request is a cache hit whose body is byte-for-byte
// the first response, for CSV and JSON alike, with provenance in X-Cache.
func TestRepeatRequestByteIdenticalCacheHit(t *testing.T) {
	s := newTestServer(t)
	// Each format gets its own scale: format is not part of the cache key
	// (both render the same table), so reusing one scale would make the
	// second format's first request a legitimate hit.
	for format, scale := range map[string]int{"csv": 64, "json": 32} { //simlint:unordered-ok each format checked independently
		target := fmt.Sprintf("/run?experiment=fig3b&scale=%d&format=%s", scale, format)
		first := do(t, s, "POST", target, "")
		if first.Code != http.StatusOK {
			t.Fatalf("%s: first run = %d: %s", format, first.Code, first.Body.String())
		}
		if got := first.Header().Get("X-Cache"); got != "miss" {
			t.Fatalf("%s: first X-Cache = %q, want miss", format, got)
		}
		key := first.Header().Get("X-Result-Key")
		if key == "" {
			t.Fatalf("%s: first response has no X-Result-Key", format)
		}
		second := do(t, s, "POST", target, "")
		if second.Code != http.StatusOK {
			t.Fatalf("%s: repeat run = %d", format, second.Code)
		}
		if got := second.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("%s: repeat X-Cache = %q, want hit", format, got)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: repeat body differs from first:\n--- first ---\n%s--- repeat ---\n%s",
				format, first.Body.String(), second.Body.String())
		}
		// The same bytes are addressable directly by key.
		byKey := do(t, s, "GET", "/results/"+key+"?format="+format, "")
		if byKey.Code != http.StatusOK || !bytes.Equal(byKey.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: GET /results/%s = %d, body mismatch", format, key, byKey.Code)
		}
	}
}

// TestServedCSVMatchesBenchBytes pins the acceptance criterion that the
// service's CSV is byte-identical to what spinbench -csv prints, for
// every experiment in the registry at its cheapest scale (MaxScale is the
// deepest subsample): both are Table.CSV of the same deterministic sweep.
func TestServedCSVMatchesBenchBytes(t *testing.T) {
	s := newTestServer(t)
	for _, exp := range bench.Experiments() {
		tab, err := exp.Build(exp.MaxScale).Run(bench.RunOptions{})
		if err != nil {
			t.Fatalf("%s: direct run: %v", exp.ID, err)
		}
		var want bytes.Buffer
		tab.CSV(&want)

		w := do(t, s, "POST", fmt.Sprintf("/run?experiment=%s&scale=%d", exp.ID, exp.MaxScale), "")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: served run = %d: %s", exp.ID, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: served CSV differs from direct bench CSV:\n--- direct ---\n%s--- served ---\n%s",
				exp.ID, want.String(), w.Body.String())
		}
	}
}

// TestConcurrentIdenticalRequestsRunOnce drives N identical requests
// concurrently against a cold cache and asserts the sweep ran exactly once:
// one cache miss, everyone else coalesced onto the in-flight computation or
// hit the cache it filled, and all N bodies byte-identical.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	s := newTestServer(t)
	const n = 8
	bodies := make([][]byte, n)
	sources := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/run", strings.NewReader(`{"experiment":"table5c","scale":64}`))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Errorf("request %d = %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.Bytes()
			sources[i] = w.Header().Get("X-Cache")
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent request %d body differs from request 0", i)
		}
	}
	for _, src := range sources {
		switch src {
		case "miss":
			misses++
		case "hit", "coalesced":
		default:
			t.Fatalf("unexpected X-Cache %q", src)
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across %d identical concurrent requests, want exactly 1 (sources: %v)", misses, n, sources)
	}
	m := stats(t, s)
	if got := m["cache_misses"].(float64); got != 1 {
		t.Fatalf("/stats cache_misses = %v, want 1", got)
	}
	if got := m["cache_hits"].(float64) + m["coalesced"].(float64); got != n-1 {
		t.Fatalf("/stats hits+coalesced = %v, want %d", got, n-1)
	}
}

// TestOverlappingScalesReusePoints sends concurrent requests whose sweeps
// share points to a 2-worker server: fig3b at scales 1-8, fig7c at scales
// 2-6, and fig3b under jitter. Every answer must be the serial bench bytes,
// whichever request computed a shared point and whichever reused it, and
// the pool's point memo must have answered some points.
func TestOverlappingScalesReusePoints(t *testing.T) {
	s := newTestServer(t)
	type request struct {
		exp    string
		scale  int
		impair string
	}
	var reqs []request
	for scale := 1; scale <= 8; scale++ {
		reqs = append(reqs, request{"fig3b", scale, ""})
	}
	for scale := 2; scale <= 6; scale++ {
		reqs = append(reqs, request{"fig7c", scale, ""})
	}
	reqs = append(reqs, request{"fig3b", 2, "jitter=2us,seed=3"})

	want := make([][]byte, len(reqs))
	for i, q := range reqs {
		exp, _ := bench.FindExperiment(q.exp)
		im, err := netsim.ParseImpairment(q.impair)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := exp.Build(q.scale).Run(bench.RunOptions{Impairment: im})
		if err != nil {
			t.Fatalf("%+v: direct run: %v", q, err)
		}
		var b bytes.Buffer
		tab.CSV(&b)
		want[i] = b.Bytes()
	}

	var wg sync.WaitGroup
	for i, q := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target := fmt.Sprintf("/run?experiment=%s&scale=%d&impair=%s", q.exp, q.scale, url.QueryEscape(q.impair))
			w := do(t, s, "POST", target, "")
			if w.Code != http.StatusOK {
				t.Errorf("%+v: served run = %d: %s", q, w.Code, w.Body.String())
				return
			}
			if !bytes.Equal(w.Body.Bytes(), want[i]) {
				t.Errorf("%+v: served CSV differs from direct bench CSV:\n--- direct ---\n%s--- served ---\n%s",
					q, want[i], w.Body.String())
			}
		}()
	}
	wg.Wait()
	if m := stats(t, s); m["points_reused"].(float64) == 0 {
		t.Fatalf("/stats points_reused = 0 after %d overlapping requests: %v", len(reqs), m)
	}
}

// TestValidationErrors pins the 400 contract: every rejection names the
// valid values so the client can repair the request.
func TestValidationErrors(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		name   string
		target string
		body   string
		status int
		want   []string // substrings that must appear in the response body
	}{
		{"unknown experiment", "/run?experiment=bogus", "", 400, []string{"bogus", "fig3b", "spc", "valid"}},
		{"missing experiment", "/run", "", 400, []string{"missing required field", "fig3b"}},
		{"scale too large", "/run?experiment=fig3b&scale=65", "", 400, []string{"out of range", "1..64"}},
		{"scale negative", "/run?experiment=fig4&scale=-1", "", 400, []string{"out of range", "1..1"}},
		{"bad impair spec", "/run?experiment=fig3b&impair=loss%3D2", "", 400, []string{"impair", "loss"}},
		{"impair on spc", "/run?experiment=spc&impair=loss%3D0.1", "", 400, []string{"spc", "does not support impairment", "fig3b"}},
		{"bad format", "/run?experiment=fig3b&format=xml", "", 400, []string{"xml", "csv", "json"}},
		{"bad body", "/run", "{not json", 400, []string{"not valid JSON", "experiment"}},
		{"unknown job", "/jobs/j999", "", 404, []string{"no job"}},
		{"unknown result", "/results/deadbeef", "", 404, []string{"no cached result"}},
	} {
		method := "POST"
		if strings.HasPrefix(tc.target, "/jobs") || strings.HasPrefix(tc.target, "/results") {
			method = "GET"
		}
		w := do(t, s, method, tc.target, tc.body)
		if w.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d: %s", tc.name, w.Code, tc.status, w.Body.String())
		}
		for _, sub := range tc.want {
			if !strings.Contains(w.Body.String(), sub) {
				t.Fatalf("%s: response does not name %q:\n%s", tc.name, sub, w.Body.String())
			}
		}
	}
	// Nothing ran: validation failures must not consume pool work.
	if m := stats(t, s); m["cache_misses"].(float64) != 0 {
		t.Fatalf("validation failures caused sweeps to run: %v", m)
	}
}

// TestAsyncJobLifecycle submits an async run, polls the job to completion,
// and checks the job's result link serves exactly the bytes a sync request
// for the same canonical parameters serves.
func TestAsyncJobLifecycle(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "POST", "/run", `{"experiment":"fig3b","scale":64,"async":true,"format":"csv"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202: %s", w.Code, w.Body.String())
	}
	var j struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Status string `json:"status"`
		Total  int64  `json:"points_total"`
		Result string `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &j); err != nil || j.ID == "" {
		t.Fatalf("async submit response bad: %v\n%s", err, w.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Status != "done" && j.Status != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", j.ID, j.Status)
		}
		time.Sleep(time.Millisecond)
		pw := do(t, s, "GET", "/jobs/"+j.ID, "")
		if pw.Code != http.StatusOK {
			t.Fatalf("poll = %d: %s", pw.Code, pw.Body.String())
		}
		if err := json.Unmarshal(pw.Body.Bytes(), &j); err != nil {
			t.Fatalf("poll response bad: %v", err)
		}
	}
	if j.Status != "done" {
		t.Fatalf("job %s = %q, want done", j.ID, j.Status)
	}
	if j.Total <= 0 || j.Result == "" {
		t.Fatalf("done job missing progress/result link: %+v", j)
	}
	got := do(t, s, "GET", j.Result, "")
	if got.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", j.Result, got.Code)
	}
	sync := do(t, s, "POST", "/run?experiment=fig3b&scale=64", "")
	if sync.Header().Get("X-Cache") != "hit" {
		t.Fatalf("sync request after async job was not a cache hit (X-Cache=%q) — async and sync must share one cache",
			sync.Header().Get("X-Cache"))
	}
	if !bytes.Equal(got.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("async result bytes differ from sync request bytes")
	}
}

// TestExperimentsAndHealthz pins the discovery endpoints: /experiments
// serves the registry metadata (same struct as spinbench -list -json) and
// /healthz reports the version stamp the cache keys on.
func TestExperimentsAndHealthz(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, "GET", "/experiments", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/experiments = %d", w.Code)
	}
	var exps []struct {
		ID         string   `json:"id"`
		Desc       string   `json:"desc"`
		MinScale   int      `json:"min_scale"`
		MaxScale   int      `json:"max_scale"`
		Columns    []string `json:"columns"`
		Impairable bool     `json:"impairable"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &exps); err != nil {
		t.Fatalf("/experiments not JSON: %v", err)
	}
	if len(exps) != len(bench.Experiments()) {
		t.Fatalf("/experiments has %d entries, registry has %d", len(exps), len(bench.Experiments()))
	}
	for _, e := range exps {
		if e.Desc == "" || len(e.Columns) == 0 || e.MinScale < 1 || e.MaxScale < e.MinScale {
			t.Fatalf("metadata incomplete for %q: %+v", e.ID, e)
		}
	}

	h := do(t, s, "GET", "/healthz", "")
	if h.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", h.Code)
	}
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(h.Body.Bytes(), &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if hz.Status != "ok" || hz.Version != "test" || hz.Workers != 2 {
		t.Fatalf("/healthz = %+v, want ok/test/2", hz)
	}
	// The body New renders once is byte-identical to encoding the map
	// with the service's indented json.Encoder.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"status": "ok", "version": "test", "workers": 2}); err != nil {
		t.Fatal(err)
	}
	if h.Body.String() != want.String() || h.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("/healthz = %q (%s), want %q (application/json)", h.Body.String(), h.Header().Get("Content-Type"), want.String())
	}
}

// TestImpairedRequestsCachedSeparately runs the same experiment impaired
// and unimpaired: distinct cache keys, distinct bytes, fault counters in
// /stats, and a repeat of each is a hit on its own entry. The impairment
// spec is canonicalized before keying, so two spellings of the same model
// share one cache entry.
func TestImpairedRequestsCachedSeparately(t *testing.T) {
	s := newTestServer(t)
	plain := do(t, s, "POST", "/run?experiment=ftbcast&scale=64", "")
	impaired := do(t, s, "POST", "/run", `{"experiment":"ftbcast","scale":64,"impair":"loss=0.02,seed=9"}`)
	if plain.Code != http.StatusOK || impaired.Code != http.StatusOK {
		t.Fatalf("runs failed: %d %d", plain.Code, impaired.Code)
	}
	if plain.Header().Get("X-Result-Key") == impaired.Header().Get("X-Result-Key") {
		t.Fatal("impaired and unimpaired runs share a cache key")
	}
	// Same model, different spelling (reordered fields) → same key.
	respelled := do(t, s, "POST", "/run", `{"experiment":"ftbcast","scale":64,"impair":"seed=9,loss=0.02"}`)
	if respelled.Header().Get("X-Cache") != "hit" {
		t.Fatalf("canonically equal impairment spec missed the cache (X-Cache=%q)", respelled.Header().Get("X-Cache"))
	}
	if respelled.Header().Get("X-Result-Key") != impaired.Header().Get("X-Result-Key") {
		t.Fatal("canonically equal impairment specs produced different keys")
	}
	m := stats(t, s)
	faults := m["faults"].(map[string]any)
	if faults["lost"].(float64) == 0 {
		t.Fatalf("/stats shows no lost packets after an impaired run: %v", m)
	}
}

// TestOneContentAddressPerResult pins the content address of one canonical
// request — fig5a at its default scale under a jitter model — across every
// way the service answers it: the miss that computes it, a request that
// coalesces onto that flight, an async job that joins it, a later hit,
// GET /results/{key} and the job's result link all return the same bytes
// under the same key, and the key is the SHA-256 over version, experiment
// id, canonical scale and canonical impairment key. Each answer spells the
// request differently (id case, scale 0 against the default, impairment
// fields reordered, query against body), and /stats counts one cache
// entry. The job must report point progress from the flight while it runs.
// A coalesced answer and a running job need the flight still in progress,
// so a run whose flight ended first is retried on a fresh server under
// another impairment seed.
func TestOneContentAddressPerResult(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		if oneContentAddress(t, seed) {
			return
		}
		t.Logf("seed %d: the flight ended before a request could join it; retrying", seed)
	}
	t.Fatal("no run saw a coalesced answer and a running job")
}

// oneContentAddress runs TestOneContentAddressPerResult once. It reports
// false when the flight ended before the coalescing request and the job
// could see it.
func oneContentAddress(t *testing.T, seed int) bool {
	s := newTestServer(t)
	spec := fmt.Sprintf("jitter=1us,seed=%d", seed)
	respelled := fmt.Sprintf("seed=%d,jitter=1us", seed)
	im, err := netsim.ParseImpairment(spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("v=test\nexp=fig5a\nscale=1\nimpair=%s\n", im.Key())))
	wantKey := hex.EncodeToString(sum[:])[:32]

	// check requires an answer with the wanted key, body (unless want is
	// nil) and X-Cache (unless cache is "").
	check := func(what string, w *httptest.ResponseRecorder, want []byte, cache string) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", what, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Result-Key"); got != wantKey {
			t.Fatalf("%s: X-Result-Key %q, want %q", what, got, wantKey)
		}
		if got := w.Header().Get("X-Cache"); cache != "" && got != cache {
			t.Fatalf("%s: X-Cache %q, want %q", what, got, cache)
		}
		if want != nil && !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s: body differs from the miss's:\n%s", what, w.Body.String())
		}
	}

	leader := make(chan *httptest.ResponseRecorder)
	go func() {
		leader <- do(t, s, "POST", "/run?experiment=fig5a&impair="+url.QueryEscape(spec), "")
	}()
	deadline := time.Now().Add(time.Minute)
	for stats(t, s)["inflight"].(float64) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the leader's flight never started")
		}
		time.Sleep(100 * time.Microsecond)
	}

	submit := do(t, s, "POST", "/run", fmt.Sprintf(`{"experiment":"FIG5A","scale":1,"impair":%q,"async":true}`, respelled))
	if submit.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", submit.Code, submit.Body.String())
	}
	type jobWire struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Status string `json:"status"`
		Done   int64  `json:"points_done"`
		Total  int64  `json:"points_total"`
		Result string `json:"result"`
	}
	var j jobWire
	if err := json.Unmarshal(submit.Body.Bytes(), &j); err != nil {
		t.Fatalf("async submit response: %v\n%s", err, submit.Body.String())
	}
	if j.Key != wantKey {
		t.Fatalf("job key %q, want %q", j.Key, wantKey)
	}
	// pollJob refreshes j from GET /jobs/{id} until stop reports true.
	pollJob := func(stop func() bool) {
		t.Helper()
		for !stop() {
			if j.Status == "failed" || time.Now().After(deadline) {
				t.Fatalf("job %+v did not finish", j)
			}
			time.Sleep(100 * time.Microsecond)
			if err := json.Unmarshal(do(t, s, "GET", "/jobs/"+j.ID, "").Body.Bytes(), &j); err != nil {
				t.Fatal(err)
			}
		}
	}
	pollJob(func() bool { return j.Status == "done" || j.Status == "running" && j.Total > 0 })
	sawProgress := j.Status == "running"
	if sawProgress && j.Done > j.Total {
		t.Fatalf("running job reports %d of %d points", j.Done, j.Total)
	}

	joined := do(t, s, "POST", "/run?experiment=Fig5a&scale=1&impair="+url.QueryEscape(respelled), "")
	first := <-leader
	check("miss", first, nil, "miss")
	want := first.Body.Bytes()
	if !sawProgress || joined.Header().Get("X-Cache") != "coalesced" {
		check("late joiner", joined, want, "")
		return false
	}
	check("coalesced", joined, want, "coalesced")

	pollJob(func() bool { return j.Status == "done" })
	if j.Key != wantKey || j.Done != j.Total || j.Total == 0 {
		t.Fatalf("done job %+v: want key %q and every point done", j, wantKey)
	}
	check("job result link", do(t, s, "GET", j.Result, ""), want, "hit")
	check("hit", do(t, s, "POST", "/run", fmt.Sprintf(`{"experiment":"fig5a","scale":0,"impair":%q}`, spec)), want, "hit")
	check("GET /results/{key}", do(t, s, "GET", "/results/"+wantKey, ""), want, "hit")

	m := stats(t, s)
	if m["cache_entries"].(float64) != 1 || m["cache_misses"].(float64) != 1 || m["coalesced"].(float64) != 2 {
		t.Fatalf("/stats after one canonical request in five spellings: %v, want 1 entry, 1 miss, 2 coalesced", m)
	}
	return true
}

// BenchmarkServeHit measures one warm POST /run cache hit through
// Server.ServeHTTP, routing included, with a ResponseWriter that keeps
// only the headers, so ns/op and allocs/op are the handler's own.
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{Workers: 1, Version: "bench"})
	defer s.Close()
	r := httptest.NewRequest(http.MethodPost, "/run?experiment=fig3b&scale=1&format=csv", nil)
	w := &headerWriter{h: http.Header{}}
	s.ServeHTTP(w, r) // the miss that fills the cache
	b.ReportAllocs()
	for b.Loop() {
		s.ServeHTTP(w, r)
	}
	if got := w.h.Get("X-Cache"); got != "hit" {
		b.Fatalf("X-Cache = %q, want hit", got)
	}
}

// headerWriter is an http.ResponseWriter that keeps the header map and
// drops the status and the body.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(int)             {}
