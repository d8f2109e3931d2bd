package spctrace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseWellFormed(t *testing.T) {
	in := "0,1234,4096,W,0.000100\n1,99,512,r,1.5\n# comment\n\n2,7,8192,R,2.0\n"
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if !recs[0].Write || recs[0].Bytes != 4096 || recs[0].LBA != 1234 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Write {
		t.Fatal("lowercase r parsed as write")
	}
	if recs[1].At.Seconds() != 1.5 {
		t.Fatalf("timestamp = %v", recs[1].At)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"0,1,2\n",            // too few fields
		"x,1,2,R,0\n",        // bad ASU
		"0,y,2,R,0\n",        // bad LBA
		"0,1,z,R,0\n",        // bad size
		"0,1,2,Q,0\n",        // bad opcode
		"0,1,2,R,notatime\n", // bad timestamp
		"0,1,2,R,NaN\n",      // NaN timestamp
		"0,1,2,R,-Inf\n",     // infinite timestamp
		"0,1,2,R,1e300\n",    // timestamp past sim.Time's range
		"0,1,2,R,-1\n",       // negative timestamp
		"-1,1,2,R,0\n",       // negative ASU
		"0,-1,2,R,0\n",       // negative LBA
		"0,1,-2,R,0\n",       // negative size
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	recs := GenFinancial(100, 42)
	var buf bytes.Buffer
	if err := Format(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].LBA != recs[i].LBA || back[i].Bytes != recs[i].Bytes || back[i].Write != recs[i].Write {
			t.Fatalf("record %d changed: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestFinancialShape(t *testing.T) {
	s := Summarize(GenFinancial(2000, 7))
	if s.WriteFraction < 0.55 || s.WriteFraction > 0.8 {
		t.Fatalf("financial write fraction %v outside OLTP range", s.WriteFraction)
	}
	if s.MeanBytes < 512 || s.MeanBytes > 8192 {
		t.Fatalf("financial mean size %v outside OLTP range", s.MeanBytes)
	}
}

func TestWebSearchShape(t *testing.T) {
	s := Summarize(GenWebSearch(2000, 7))
	if s.WriteFraction > 0.03 {
		t.Fatalf("web-search write fraction %v too high", s.WriteFraction)
	}
	if s.MeanBytes < 8192 {
		t.Fatalf("web-search mean size %v too small", s.MeanBytes)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenFinancial(50, 9)
	b := GenFinancial(50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSuiteComplete(t *testing.T) {
	s := Suite(10)
	if len(s) != 5 {
		t.Fatalf("suite has %d traces", len(s))
	}
	for _, name := range SuiteNames() {
		if len(s[name]) != 10 {
			t.Fatalf("trace %s missing or wrong length", name)
		}
	}
}

// Property: generated sizes are 512-byte aligned and positive.
func TestSizesAlignedProperty(t *testing.T) {
	f := func(seed int64) bool {
		for _, r := range GenFinancial(64, seed) {
			if r.Bytes <= 0 || r.Bytes%512 != 0 {
				return false
			}
		}
		for _, r := range GenWebSearch(64, seed) {
			if r.Bytes <= 0 || r.Bytes%512 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
