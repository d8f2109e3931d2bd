// Package spctrace reads Storage Performance Council (SPC) block-I/O
// traces — the format of the five traces in §5.3 (two OLTP traces from a
// large financial institution, three web-search traces) — and provides
// synthetic generators with the same workload shapes for when the original
// traces are not redistributable.
//
// SPC trace file format (rev 1.0.1): ASCII records
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// with Size in bytes, Opcode "R"/"r" or "W"/"w", Timestamp in seconds.
package spctrace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Record is one I/O request.
type Record struct {
	ASU   int
	LBA   int64
	Bytes int
	Write bool
	At    sim.Time
}

// maxSeconds bounds a record's timestamp so that it converts to sim.Time
// without overflow. It is a whole number of seconds, so Format's rounding
// to microseconds never carries an accepted timestamp past it.
const maxSeconds = float64(math.MaxInt64 / sim.Second)

// Parse reads an SPC-format trace. ASU, LBA and size must be non-negative
// and the timestamp within [0, maxSeconds].
func Parse(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 5 {
			return nil, fmt.Errorf("spctrace: line %d: want 5 fields, got %d", line, len(fields))
		}
		asu, err := nonNegative(fields[0], 0)
		if err != nil {
			return nil, fmt.Errorf("spctrace: line %d: bad ASU: %v", line, err)
		}
		lba, err := nonNegative(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("spctrace: line %d: bad LBA: %v", line, err)
		}
		size, err := nonNegative(fields[2], 0)
		if err != nil {
			return nil, fmt.Errorf("spctrace: line %d: bad size: %v", line, err)
		}
		op := strings.ToUpper(strings.TrimSpace(fields[3]))
		if op != "R" && op != "W" {
			return nil, fmt.Errorf("spctrace: line %d: bad opcode %q", line, op)
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(fields[4]), 64)
		if err == nil && !(ts >= 0 && ts <= maxSeconds) { // NaN fails both
			err = fmt.Errorf("%v s outside [0, %.0f]", ts, maxSeconds)
		}
		if err != nil {
			return nil, fmt.Errorf("spctrace: line %d: bad timestamp: %v", line, err)
		}
		recs = append(recs, Record{
			ASU:   int(asu),
			LBA:   lba,
			Bytes: int(size),
			Write: op == "W",
			At:    sim.Time(ts * float64(sim.Second)),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// nonNegative parses a decimal integer field of the given bit size (0 for
// int) that must not be negative.
func nonNegative(field string, bitSize int) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(field), 10, bitSize)
	if err == nil && v < 0 {
		err = fmt.Errorf("%d is negative", v)
	}
	return v, err
}

// Format writes records in SPC format.
func Format(w io.Writer, recs []Record) error {
	for _, r := range recs {
		op := "R"
		if r.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%s,%.6f\n",
			r.ASU, r.LBA, r.Bytes, op, r.At.Seconds()); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Ops           int
	WriteFraction float64
	MeanBytes     float64
}

// Summarize computes trace statistics.
func Summarize(recs []Record) Stats {
	var s Stats
	s.Ops = len(recs)
	if s.Ops == 0 {
		return s
	}
	writes, bytes := 0, 0
	for _, r := range recs {
		if r.Write {
			writes++
		}
		bytes += r.Bytes
	}
	s.WriteFraction = float64(writes) / float64(s.Ops)
	s.MeanBytes = float64(bytes) / float64(s.Ops)
	return s
}

// block rounds to 512-byte multiples, the SPC granularity.
func block(n int) int {
	if n < 512 {
		return 512
	}
	return (n / 512) * 512
}

// GenFinancial synthesizes an OLTP trace in the shape of the SPC
// Financial1/Financial2 traces: write-heavy (≈60–77%), small transfers
// (512 B–8 KiB, median ~2–4 KiB), strong spatial locality.
func GenFinancial(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	hot := rng.Int63n(1 << 22)
	for i := range recs {
		if rng.Float64() < 0.05 { // hot region shifts occasionally
			hot = rng.Int63n(1 << 22)
		}
		size := block(int(512 * (1 + rng.ExpFloat64()*4)))
		if size > 8192 {
			size = 8192
		}
		recs[i] = Record{
			ASU:   rng.Intn(3),
			LBA:   hot + rng.Int63n(4096),
			Bytes: size,
			Write: rng.Float64() < 0.68,
			At:    sim.Time(i) * 30 * sim.Microsecond,
		}
	}
	return recs
}

// GenWebSearch synthesizes a search-engine I/O trace in the shape of the
// SPC WebSearch1/2/3 traces: almost entirely reads (≈99%), larger
// transfers (8–64 KiB), widely scattered addresses.
func GenWebSearch(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		size := block(8192 << rng.Intn(4)) // 8, 16, 32, 64 KiB
		recs[i] = Record{
			ASU:   rng.Intn(2),
			LBA:   rng.Int63n(1 << 28),
			Bytes: size,
			Write: rng.Float64() < 0.01,
			At:    sim.Time(i) * 120 * sim.Microsecond,
		}
	}
	return recs
}

// Suite returns the five §5.3 traces (synthetic equivalents).
func Suite(opsPerTrace int) map[string][]Record {
	return map[string][]Record{
		"Financial1": GenFinancial(opsPerTrace, 1),
		"Financial2": GenFinancial(opsPerTrace, 2),
		"WebSearch1": GenWebSearch(opsPerTrace, 3),
		"WebSearch2": GenWebSearch(opsPerTrace, 4),
		"WebSearch3": GenWebSearch(opsPerTrace, 5),
	}
}

// SuiteNames returns the trace names in presentation order.
func SuiteNames() []string {
	return []string{"Financial1", "Financial2", "WebSearch1", "WebSearch2", "WebSearch3"}
}
