package spctrace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSPCParse feeds arbitrary text to Parse. It must never panic; every
// record it accepts has a non-negative ASU, LBA, size and timestamp; and
// Format's rendering of the accepted records parses back to the same ASU,
// LBA, size and direction (Format rounds timestamps to microseconds, so
// those are compared only for acceptance). testdata/fuzz/FuzzSPCParse
// holds the timestamps that once converted out of range (NaN, Inf, 1e300)
// and negative fields.
func FuzzSPCParse(f *testing.F) {
	for _, s := range []string{
		"0,1234,4096,W,0.000100\n1,99,512,r,1.5\n# comment\n\n2,7,8192,R,2.0\n",
		"0,0,0,R,0\n",
		"1,9223372036854775807,512,w,9223372\n",
		"0,1,2\n",
		"0,1,2,R,notatime\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, r := range recs {
			if r.ASU < 0 || r.LBA < 0 || r.Bytes < 0 || r.At < 0 {
				t.Fatalf("record %d accepted with a negative field: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := Format(&buf, recs); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, buf.String())
		}
		if len(back) != len(recs) {
			t.Fatalf("re-parse gave %d records, want %d", len(back), len(recs))
		}
		for i, r := range recs {
			b := back[i]
			if b.ASU != r.ASU || b.LBA != r.LBA || b.Bytes != r.Bytes || b.Write != r.Write {
				t.Fatalf("record %d re-parsed as %+v, want %+v", i, b, r)
			}
		}
	})
}
