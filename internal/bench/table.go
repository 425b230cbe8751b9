// Package bench regenerates every table and figure of the paper's
// evaluation (§4). Each experiment returns a Table whose rows mirror the
// series the paper plots; the cmd/trackfm-bench CLI prints them, the
// package tests assert the paper's *shape* claims (who wins, by roughly
// what factor, where crossovers fall), and the repository-root Go
// benchmarks wrap them for `go test -bench`.
//
// Working sets are scaled down from the paper's 1-34 GB to a few MB; all
// figure axes are ratios (local-memory %, elements per object, Zipf
// skew), so the shapes are scale-invariant. EXPERIMENTS.md records
// paper-versus-measured values per experiment.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one regenerated table or figure: column headers plus formatted
// rows, in the same orientation the paper reports.
type Table struct {
	ID      string     `json:"id"` // e.g. "fig7", "table1"
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`

	// Ops is the deterministic count of workload operations behind the
	// rows, recorded in the checked-in JSON artifacts; zero when an
	// experiment has no meaningful op count.
	Ops uint64 `json:"ops,omitempty"`
}

// JSON renders the table as indented JSON, for downstream plotting tools.
func (t *Table) JSON() string {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		// The table is plain strings; marshaling cannot fail in practice.
		return fmt.Sprintf(`{"id":%q,"error":%q}`, t.ID, err.Error())
	}
	return string(b)
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
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
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// cell formatting helpers.

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }

// mb formats a byte count in MB.
func mb(v uint64) string { return fmt.Sprintf("%.1f", float64(v)/(1<<20)) }
