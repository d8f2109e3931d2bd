package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// Request is an experiment request as the client states it. Fields may
// arrive as a JSON body, as query parameters, or mixed (query overrides
// body field-by-field). The zero values mean "default": Scale 0 is the
// experiment's DefaultScale, empty Format is "csv".
type Request struct {
	// Experiment is a registry id (case-insensitive), e.g. "fig3b".
	Experiment string `json:"experiment"`
	// Scale subsamples the sweep (spinbench -scale); 0 = experiment default.
	Scale int `json:"scale,omitempty"`
	// Impair is a netsim impairment spec, e.g. "loss=0.01,jitter=2us,seed=7".
	Impair string `json:"impair,omitempty"`
	// Format selects the result rendering: "csv" (default) or "json".
	Format string `json:"format,omitempty"`
	// Async makes POST /run return a job id immediately instead of the
	// result body.
	Async bool `json:"async,omitempty"`
}

// canonical is a validated, canonicalized request: scale resolved and
// bounds-checked, the impairment spec replaced by its canonical Key() form,
// format normalized. Equal canonicals produce byte-identical results, which
// is what makes Key a safe cache address.
type canonical struct {
	Exp    bench.Experiment
	Scale  int
	Impair *netsim.Impairment // nil when unimpaired
	Key    string             // impairment canonical key ("" when unimpaired)
	Format string
	Async  bool
}

// reqKey is a canonical request's identity on one server, the key of its
// result cache and its flights: the version is fixed per server and the
// format renders the same table. Equal reqKeys have equal content
// addresses (cacheKey).
type reqKey struct {
	exp    string
	scale  int
	impair string
}

func (c canonical) id() reqKey { return reqKey{c.Exp.ID, c.Scale, c.Key} }

// parseRequest decodes a /run request from body and query parameters. A
// request whose Content-Length is 0 has no body to read.
func parseRequest(r *http.Request) (Request, error) {
	var req Request
	if r.ContentLength != 0 {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<16))
		if err != nil {
			return req, &apiError{status: http.StatusBadRequest, Msg: fmt.Sprintf("reading request body: %v", err)}
		}
		if len(body) > 0 {
			// Decoded into its own variable: json.Unmarshal moves it to the
			// heap, and only a request with a body should pay for that.
			var b Request
			if err := json.Unmarshal(body, &b); err != nil {
				return req, &apiError{status: http.StatusBadRequest,
					Msg: fmt.Sprintf("request body is not valid JSON: %v (fields: experiment, scale, impair, format, async)", err)}
			}
			req = b
		}
	}
	q := readQuery(r.URL.RawQuery)
	if q.experiment != "" {
		req.Experiment = q.experiment
	}
	if q.scale != "" {
		n, err := strconv.Atoi(q.scale)
		if err != nil {
			return req, &apiError{status: http.StatusBadRequest, Msg: fmt.Sprintf("scale %q is not an integer", q.scale)}
		}
		req.Scale = n
	}
	if q.impair != "" {
		req.Impair = q.impair
	}
	if q.format != "" {
		req.Format = q.format
	}
	if q.async != "" {
		b, err := strconv.ParseBool(q.async)
		if err != nil {
			return req, &apiError{status: http.StatusBadRequest, Msg: fmt.Sprintf("async %q is not a boolean", q.async)}
		}
		req.Async = b
	}
	return req, nil
}

// query holds the first value of each request field in a raw URL query,
// "" for a field the query does not carry.
type query struct {
	experiment, scale, impair, format, async string
}

// readQuery reads the request fields from a raw query in one pass, with
// exactly the semantics of url.ParseQuery followed by Values.Get: pairs
// split on '&'; a pair that contains ';', or whose key or value has a bad
// escape, is skipped; and the first value of a key wins, even an empty
// one. It allocates only to unescape a pair that has escapes.
func readQuery(raw string) query {
	var q query
	var seen uint8 // one bit per field whose first value is read
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		var dst *string
		var bit uint8
		switch k {
		case "experiment":
			dst, bit = &q.experiment, 1
		case "scale":
			dst, bit = &q.scale, 2
		case "impair":
			dst, bit = &q.impair, 4
		case "format":
			dst, bit = &q.format, 8
		case "async":
			dst, bit = &q.async, 16
		default:
			continue
		}
		if seen&bit != 0 {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			*dst, seen = v, seen|bit
		}
	}
	return q
}

// validate checks req against the registry and canonicalizes it. Every
// rejection is a 400 naming the valid values, so a client can repair the
// request without reading docs.
func (s *Server) validate(req Request) (canonical, error) {
	var c canonical
	exp, ok := bench.FindExperiment(req.Experiment)
	if !ok {
		msg := fmt.Sprintf("unknown experiment %q", req.Experiment)
		if req.Experiment == "" {
			msg = "missing required field: experiment"
		}
		return c, &apiError{status: http.StatusBadRequest, Msg: msg, Valid: bench.ExperimentIDs()}
	}
	c.Exp = exp

	c.Scale = req.Scale
	if c.Scale == 0 {
		c.Scale = exp.DefaultScale
	}
	if c.Scale < exp.MinScale || c.Scale > exp.MaxScale {
		return c, &apiError{status: http.StatusBadRequest,
			Msg:   fmt.Sprintf("scale %d out of range for %s", c.Scale, exp.ID),
			Valid: []string{fmt.Sprintf("%d..%d", exp.MinScale, exp.MaxScale)}}
	}

	if req.Impair != "" {
		im, err := netsim.ParseImpairment(req.Impair)
		if err != nil {
			return c, &apiError{status: http.StatusBadRequest,
				Msg:   fmt.Sprintf("impair: %v", err),
				Valid: []string{"loss=P", "lossn=N", "corrupt=P", "latency=D", "jitter=D", "throttle=D", "seed=N", "fail=SRC:DST:FROM[:UNTIL]"}}
		}
		if im.Enabled() {
			if !exp.Impairable {
				return c, &apiError{status: http.StatusBadRequest,
					Msg:   fmt.Sprintf("experiment %s does not support impairment (its raidsim trace replays have no recovery layer)", exp.ID),
					Valid: impairableIDs(s.exps)}
			}
			c.Impair = im
			c.Key = im.Key()
		}
	}

	format, err := normalizeFormat(req.Format)
	if err != nil {
		return c, err
	}
	c.Format = format
	c.Async = req.Async
	return c, nil
}

// normalizeFormat resolves a format parameter; "" means csv.
func normalizeFormat(f string) (string, error) {
	switch strings.ToLower(f) {
	case "", "csv":
		return "csv", nil
	case "json":
		return "json", nil
	}
	return "", &apiError{status: http.StatusBadRequest,
		Msg: fmt.Sprintf("unknown format %q", f), Valid: []string{"csv", "json"}}
}

// impairableIDs lists the experiments that accept a fault model.
func impairableIDs(exps []bench.Experiment) []string {
	var ids []string
	for _, e := range exps {
		if e.Impairable {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// cacheKey is the content address of a canonical request's result: a hash
// over (code version, experiment id, canonical scale, canonical impairment
// key). Format is deliberately absent — csv and json render the same
// cached table. The version component means a binary built from different
// code computes disjoint keys, so stale results are unreachable, not
// merely unlikely. It is computed when a result is stored, which keeps it,
// and when a job is submitted; lookups go by reqKey.
func (s *Server) cacheKey(c canonical) string {
	h := sha256.New()
	fmt.Fprintf(h, "v=%s\nexp=%s\nscale=%d\nimpair=%s\n", s.version, c.Exp.ID, c.Scale, c.Key)
	return hex.EncodeToString(h.Sum(nil))[:32]
}
