// Package stats provides the small numeric and formatting helpers the
// evaluation's table renderers use: geometric means (the paper's §5 note: "Geometric
// mean is used for all normalized results") and plain-text tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs, ignoring non-positive entries
// (a normalized ratio of zero would otherwise annihilate the mean).
// It returns 0 for an empty or all-non-positive input.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns num/den as a float, 0 when den is 0.
func Ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(r float64) string { return fmt.Sprintf("%.1f%%", 100*r) }

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Add appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddSep appends a separator row (rendered as dashes).
func (t *Table) AddSep() {
	t.rows = append(t.rows, nil)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		if r == nil {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
			continue
		}
		writeRow(r)
	}
	return sb.String()
}
