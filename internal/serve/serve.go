// Package serve turns the simulator into a long-running experiment
// service: an HTTP/JSON API that validates experiment requests against the
// bench registry, executes them as queued tasks on a persistent bench.Pool
// whose workers own long-lived Envs, and answers repeat requests from a
// content-addressed result cache keyed by (experiment id, canonicalized
// parameters, code version). Determinism is the whole economy — equal
// requests produce byte-identical tables, so every result is infinitely
// cacheable, identical requests in flight coalesce onto one computation
// (singleflight), and the version stamp in the key guarantees a rebuilt
// binary can never serve a stale table.
//
// Concurrency contract (normative, see ARCHITECTURE.md "Serving"): HTTP
// goroutines never touch a simulation engine. They validate, enqueue
// points onto the pool, wait, and read caches; points execute exclusively
// on pool workers, each over its own Env, and an engine runs either on the
// worker or on a goroutine the worker's point starts and joins. The package
// reads no wall clocks — job ids are sequence numbers and progress is
// point counts — so simlint's nowallclock holds here with no annotations.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/netsim"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the persistent pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Version overrides the code-version stamp joined into every cache
	// key; empty uses buildinfo.Version (the Makefile-injected git rev).
	Version string
}

// Server is the experiment service: one persistent pool, one result cache,
// one job table. Create with New; it implements http.Handler.
type Server struct {
	version string
	pool    *bench.Pool
	exps    []bench.Experiment
	mux     *http.ServeMux
	// healthz is the /healthz body, rendered once: the version and the
	// worker count are fixed per server.
	healthz []byte

	mu        sync.Mutex
	cache     map[reqKey]*result // the lookup every POST /run makes
	byKey     map[string]*result // the same results by content address
	flights   map[reqKey]*flight
	jobs      map[string]*job
	jobSeq    int
	hits      uint64
	misses    uint64
	coalesced uint64
	faults    netsim.FaultStats
}

// New returns a ready-to-serve Server with its worker pool started.
func New(cfg Config) *Server {
	v := cfg.Version
	if v == "" {
		v = buildinfo.Version
	}
	s := &Server{
		version: v,
		pool:    bench.NewPool(cfg.Workers),
		exps:    bench.Experiments(),
		cache:   make(map[reqKey]*result),
		byKey:   make(map[string]*result),
		flights: make(map[reqKey]*flight),
		jobs:    make(map[string]*job),
	}
	var hz bytes.Buffer
	encodeJSON(&hz, map[string]any{
		"status":  "ok",
		"version": v,
		"workers": s.pool.Workers(),
	})
	s.healthz = hz.Bytes()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains and stops the worker pool. The server must not receive
// requests concurrently with or after Close.
func (s *Server) Close() { s.pool.Close() }

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON is the service's one JSON rendering: indented, newline-ended.
func encodeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is a client-visible failure: a status, a message, and — for
// 400s — the valid values the request should have used.
type apiError struct {
	status int
	Msg    string   `json:"error"`
	Valid  []string `json:"valid,omitempty"`
}

func (e *apiError) Error() string { return e.Msg }

// writeError renders err: apiErrors keep their status and valid-value
// list, anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	if ae, ok := err.(*apiError); ok {
		writeJSON(w, ae.status, ae)
		return
	}
	writeJSON(w, http.StatusInternalServerError, &apiError{Msg: err.Error()})
}

// handleExperiments serves the registry metadata — the same struct
// `spinbench -list -json` prints and request validation consumes.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.exps)
}

// handleHealthz reports liveness plus the code-version stamp, so operators
// can tell which build a cache was warmed by. It writes the body New
// rendered.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(s.healthz)
}

// statsFaults is netsim.FaultStats in wire form.
type statsFaults struct {
	Lost         uint64 `json:"lost"`
	Blocked      uint64 `json:"blocked"`
	Corrupted    uint64 `json:"corrupted"`
	Delayed      uint64 `json:"delayed"`
	Retransmits  uint64 `json:"retransmits"`
	RetransFails uint64 `json:"retrans_failures"`
}

func wireFaults(f netsim.FaultStats) statsFaults {
	return statsFaults{
		Lost: f.Lost, Blocked: f.Blocked, Corrupted: f.Corrupted,
		Delayed: f.Delayed, Retransmits: f.Retransmits, RetransFails: f.RetransFails,
	}
}

// handleStats serves the service counters: cache effectiveness, queue
// state, point work (points_total executed on workers, points_reused
// answered from the pool's point memo, point_memo_entries held there), job
// states, and the fault totals accumulated across every run.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobStates := map[string]int{}
	for _, j := range s.jobs { //simlint:unordered-ok commutative counting of job states
		jobStates[j.status]++
	}
	snap := map[string]any{
		"version":            s.version,
		"cache_entries":      len(s.cache),
		"cache_hits":         s.hits,
		"cache_misses":       s.misses,
		"coalesced":          s.coalesced,
		"inflight":           len(s.flights),
		"workers":            s.pool.Workers(),
		"queue_depth":        s.pool.QueueDepth(),
		"running":            s.pool.Running(),
		"points_total":       s.pool.Completed(),
		"points_reused":      s.pool.Reused(),
		"point_memo_entries": s.pool.MemoEntries(),
		"jobs":               jobStates,
		"faults":             wireFaults(s.faults),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// handleResult serves a cached result by key, in the requested format.
// Results appear here the moment a run completes (sync or async); unknown
// keys are 404 — the service never recomputes from a key, because the key
// is a hash, not a request.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	format, err := normalizeFormat(readQuery(r.URL.RawQuery).format)
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	res := s.byKey[key]
	if res != nil {
		s.hits++
	}
	s.mu.Unlock()
	if res == nil {
		writeError(w, &apiError{status: http.StatusNotFound,
			Msg: fmt.Sprintf("no cached result for key %q (POST /run computes and caches it)", key)})
		return
	}
	writeResult(w, res, format, hit)
}
