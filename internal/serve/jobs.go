package serve

import (
	"fmt"
	"net/http"
)

// job is one asynchronous run request. Ids are sequence numbers, not
// timestamps — the serve layer reads no wall clocks. Status moves
// queued → running → done|failed under s.mu; the result itself lives in
// the shared cache under j.req, so an async job and a sync request for the
// same canonical parameters share one computation and one cached result.
type job struct {
	id     string
	req    reqKey
	key    string // the result's content address, for the result link
	format string
	status string // "queued", "running", "done", "failed"
	errMsg string
}

// jobJSON is a job's wire form. Result is the path to fetch the bytes
// from once Status is "done".
type jobJSON struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Done   int64  `json:"points_done"`
	Total  int64  `json:"points_total"`
	Error  string `json:"error,omitempty"`
	Result string `json:"result,omitempty"`
}

// submitJob registers a job for c and starts its runner goroutine. The
// runner goes through the same singleflight as sync requests, so a job
// whose result is already cached (or in flight) completes without running
// anything.
func (s *Server) submitJob(c canonical) *job {
	s.mu.Lock()
	s.jobSeq++
	j := &job{
		id:     fmt.Sprintf("j%d", s.jobSeq),
		req:    c.id(),
		key:    s.cacheKey(c),
		format: c.Format,
		status: "queued",
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	go func() {
		s.mu.Lock()
		j.status = "running"
		s.mu.Unlock()
		_, _, err := s.getOrRun(c)
		s.mu.Lock()
		if err != nil {
			j.status = "failed"
			j.errMsg = err.Error()
		} else {
			j.status = "done"
		}
		s.mu.Unlock()
	}()
	return j
}

// jobStatus snapshots a job for the wire. Progress comes from the key's
// live flight when one is running; a done job reports total/total.
func (s *Server) jobStatus(j *job) jobJSON {
	s.mu.Lock()
	out := jobJSON{ID: j.id, Key: j.key, Status: j.status, Error: j.errMsg}
	if f := s.flights[j.req]; f != nil {
		out.Done = f.done.Load()
		out.Total = f.total.Load()
	}
	if j.status == "done" {
		if res := s.cache[j.req]; res != nil {
			// A finished sweep has run every point; recover the count from
			// the cached result rather than keeping the flight alive.
			out.Done = int64(res.points)
			out.Total = out.Done
		}
		out.Result = fmt.Sprintf("/results/%s?format=%s", j.key, j.format)
	}
	s.mu.Unlock()
	return out
}

// handleJob is GET /jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, &apiError{status: http.StatusNotFound,
			Msg: fmt.Sprintf("no job %q (POST /run with async=true creates one)", id)})
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}
