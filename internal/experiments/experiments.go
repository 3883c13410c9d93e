// Package experiments implements the full evaluation harness: one
// function per table/figure of the reproduction (see DESIGN.md §4).
// Each experiment returns a structured result that renders as the table
// the paper's artifact corresponds to; cmd/sspd-bench prints them and
// the root benchmarks re-run them under `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (F1, T1, F2, F3, E1..E8).
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Columns names the table columns.
	Columns []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes holds free-form observations (the "shape" statements).
	Notes []string
}

// Fprint renders the table to w.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f formats a float compactly.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func d(v int64) string { return fmt.Sprintf("%d", v) }
