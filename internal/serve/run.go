package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// result is one cached experiment outcome: its content address plus both
// renderings, computed once at store time so every later hit returns the
// exact same bytes (the byte-identity guarantee is literal — repeats serve
// the same slice).
type result struct {
	key       string
	keyHeader []string // X-Result-Key's value, shared by every response
	points    int
	csv       []byte
	json      []byte
	faults    netsim.FaultStats
}

// source is how getOrRun resolved a request, sent as X-Cache.
type source uint8

const (
	hit source = iota
	miss
	coalesced
)

// Header values shared by every response that carries them: net/http only
// reads a header's values, so no response needs a copy of its own.
var (
	xCache          = [...][]string{hit: {"hit"}, miss: {"miss"}, coalesced: {"coalesced"}}
	csvContentType  = []string{"text/csv; charset=utf-8"}
	jsonContentType = []string{"application/json"}
)

// flight is one in-progress computation: the leader (first requester of a
// key) runs the sweep, everyone else arriving before it finishes blocks on
// ch and reads res/err after the close — the singleflight that keeps N
// identical concurrent requests from running N sweeps.
type flight struct {
	ch    chan struct{} // closed when res/err are set
	res   *result
	err   error
	done  atomic.Int64 // points finished, for job progress
	total atomic.Int64
}

// resultJSON is the JSON rendering of a result.
type resultJSON struct {
	Experiment string       `json:"experiment"`
	Scale      int          `json:"scale"`
	Impair     string       `json:"impair,omitempty"`
	Version    string       `json:"version"`
	Key        string       `json:"key"`
	Title      string       `json:"title"`
	Header     []string     `json:"header"`
	Rows       [][]string   `json:"rows"`
	Notes      string       `json:"notes,omitempty"`
	Faults     *statsFaults `json:"faults,omitempty"`
}

// getOrRun resolves a canonical request to a result, reporting how: hit
// (served from cache), coalesced (joined another request's in-flight
// computation), or miss (this call computed it). A hit is one lookup
// under s.mu. Errors are never cached — a failed run reruns on the next
// request.
func (s *Server) getOrRun(c canonical) (*result, source, error) {
	id := c.id()
	s.mu.Lock()
	if res := s.cache[id]; res != nil {
		s.hits++
		s.mu.Unlock()
		return res, hit, nil
	}
	if f := s.flights[id]; f != nil {
		s.coalesced++
		s.mu.Unlock()
		<-f.ch
		return f.res, coalesced, f.err
	}
	f := &flight{ch: make(chan struct{})}
	s.flights[id] = f
	s.misses++
	s.mu.Unlock()

	res, err := s.runFlight(c, f)

	s.mu.Lock()
	if err == nil {
		s.cache[id] = res
		s.byKey[res.key] = res
		s.faults.Add(res.faults)
	}
	delete(s.flights, id)
	s.mu.Unlock()
	f.res, f.err = res, err
	close(f.ch) // after res/err are set: waiters read them only post-close
	return res, miss, err
}

// runFlight executes one experiment on the pool and renders the result.
// This is the only function that builds sweeps, and the sweep's points
// execute exclusively on pool workers — the calling HTTP (or job)
// goroutine just waits.
func (s *Server) runFlight(c canonical, f *flight) (*result, error) {
	sweep := c.Exp.Build(c.Scale)
	f.total.Store(int64(sweep.Points()))
	tab, err := sweep.Run(bench.RunOptions{
		Pool:       s.pool,
		Impairment: c.Impair,
		Progress:   func(done, total int) { f.done.Store(int64(done)) },
	})
	if err != nil {
		return nil, err
	}
	key := s.cacheKey(c)
	res := &result{
		key:       key,
		keyHeader: []string{key},
		points:    sweep.Points(),
		faults:    sweep.Faults(),
	}
	var csvBuf bytes.Buffer
	tab.CSV(&csvBuf) // exactly the bytes `spinbench -csv` prints for this table
	res.csv = csvBuf.Bytes()

	rj := resultJSON{
		Experiment: c.Exp.ID,
		Scale:      c.Scale,
		Impair:     c.Key,
		Version:    s.version,
		Key:        key,
		Title:      tab.Title,
		Header:     tab.Header,
		Rows:       tab.Rows,
		Notes:      tab.Notes,
	}
	if res.faults.Any() {
		wf := wireFaults(res.faults)
		rj.Faults = &wf
	}
	var jsonBuf bytes.Buffer
	enc := json.NewEncoder(&jsonBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rj); err != nil {
		return nil, err
	}
	res.json = jsonBuf.Bytes()
	return res, nil
}

// writeResult writes a result in the requested format with the cache
// provenance headers (X-Cache: hit|miss|coalesced, X-Result-Key). Every
// header value is a shared slice, so writing one allocates nothing here.
func writeResult(w http.ResponseWriter, res *result, format string, src source) {
	h := w.Header()
	h["X-Cache"] = xCache[src]
	h["X-Result-Key"] = res.keyHeader
	body := res.csv
	h["Content-Type"] = csvContentType
	if format == "json" {
		body = res.json
		h["Content-Type"] = jsonContentType
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleRun is POST /run: validate, then either compute-or-fetch
// synchronously, or enqueue a job and return its id (async=true).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	c, err := s.validate(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if c.Async {
		j := s.submitJob(c)
		writeJSON(w, http.StatusAccepted, s.jobStatus(j))
		return
	}
	res, src, err := s.getOrRun(c)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, res, c.Format, src)
}
