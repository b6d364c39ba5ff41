package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result table: a title, a header row, and data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a data row built from the given cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint writes the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ratio renders num/den as a factor ("3.2x"), or "-" when den is not
// positive.
func ratio(num, den float64) string {
	if den <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", num/den)
}

func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string   { return fmt.Sprintf("%.4f", v) }
func ms(v float64) string   { return fmt.Sprintf("%.1fms", v) }
func secs(v float64) string { return fmt.Sprintf("%.3fs", v) }
func mb(bytes int64) string {
	return fmt.Sprintf("%.2fMB", float64(bytes)/(1<<20))
}
