// Package bench regenerates every table and figure of the paper's
// evaluation (§4.4, §5): each experiment builds the corresponding simulated
// system, runs it, and emits the series the paper plots. bench_test.go at
// the repository root and cmd/spinbench expose them as testing.B benchmarks
// and a CLI respectively. The per-experiment index is the registry in
// registry.go (`spinbench -list`).
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated figure or table: a header row plus data rows.
type Table struct {
	ID     string // experiment id, e.g. "fig3b"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  -- %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// us formats picoseconds as microseconds with 3 decimals.
func us(ps int64) string { return fmt.Sprintf("%.3f", float64(ps)/1e6) }

// gibps formats bytes moved in t picoseconds as GiB/s.
func gibps(bytes int, ps int64) string {
	if ps == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(bytes)/(float64(ps)*1e-12)/(1<<30))
}
