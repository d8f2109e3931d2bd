package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// FuzzServeRequest drives the request front door, parseRequest then
// validate, with a fuzzed JSON body and fuzzed query values for every
// request field, and runs no experiment. It must never panic. Every
// rejection is an *apiError with status 400, never a 500, and every one
// validate makes (unknown or missing experiment, scale out of range, bad
// impairment spec, impairment refused, unknown format) names the valid
// values. An accepted request has a scale inside its experiment's range, a
// csv or json format, and an impairment key that re-parses to itself.
// Seed corpus: testdata/fuzz/FuzzServeRequest.
func FuzzServeRequest(f *testing.F) {
	s := &Server{exps: bench.Experiments()}
	f.Fuzz(func(t *testing.T, body, exp, scale, impair, format, async string) {
		q := url.Values{}
		q.Set("experiment", exp)
		q.Set("scale", scale)
		q.Set("impair", impair)
		q.Set("format", format)
		q.Set("async", async)
		r := httptest.NewRequest(http.MethodPost, "/run?"+q.Encode(), strings.NewReader(body))
		req, err := parseRequest(r)
		if err != nil {
			badRequest(t, "parseRequest", err, false)
			return
		}
		c, err := s.validate(req)
		if err != nil {
			badRequest(t, "validate", err, true)
			return
		}
		if c.Scale < c.Exp.MinScale || c.Scale > c.Exp.MaxScale {
			t.Fatalf("accepted %+v: scale %d outside %s's range %d..%d", req, c.Scale, c.Exp.ID, c.Exp.MinScale, c.Exp.MaxScale)
		}
		if c.Format != "csv" && c.Format != "json" {
			t.Fatalf("accepted %+v: format %q", req, c.Format)
		}
		if c.Impair == nil {
			if c.Key != "" {
				t.Fatalf("accepted %+v: unimpaired request keyed %q", req, c.Key)
			}
			return
		}
		again, err := netsim.ParseImpairment(c.Key)
		if err != nil || again.Key() != c.Key {
			t.Fatalf("accepted %+v: impairment key %q is not a re-parse fixed point (err %v)", req, c.Key, err)
		}
	})
}

// FuzzQueryFields checks readQuery, the one-pass reader parseRequest and
// GET /results use, against the reader it replaced: url.ParseQuery
// followed by Values.Get. Every raw query must give the same value for
// each of the five request fields — the first value of a key, even an
// empty one, with ';' pairs and bad escapes skipped. Seed corpus:
// testdata/fuzz/FuzzQueryFields.
func FuzzQueryFields(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // the error names a skipped pair; the rest is parsed
		want := query{
			experiment: v.Get("experiment"),
			scale:      v.Get("scale"),
			impair:     v.Get("impair"),
			format:     v.Get("format"),
			async:      v.Get("async"),
		}
		if got := readQuery(raw); got != want {
			t.Fatalf("readQuery(%q) = %+v, url.ParseQuery + Get = %+v", raw, got, want)
		}
	})
}

// badRequest fails unless err is an *apiError with status 400 that, when
// wantValid is set, names the valid values.
func badRequest(t *testing.T, stage string, err error, wantValid bool) {
	t.Helper()
	ae, ok := err.(*apiError) // exactly writeError's test for a non-500
	if !ok {
		t.Fatalf("%s: rejection %v is a %T, not an *apiError (it would render as a 500)", stage, err, err)
	}
	if ae.status != http.StatusBadRequest {
		t.Fatalf("%s: rejection %q has status %d, want 400", stage, ae.Msg, ae.status)
	}
	if wantValid && len(ae.Valid) == 0 {
		t.Fatalf("%s: rejection %q names no valid values", stage, ae.Msg)
	}
}
