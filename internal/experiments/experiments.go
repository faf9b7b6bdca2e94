// Package experiments regenerates every table and figure of the DATE'17
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// experiment returns a formatted report and the key numbers its tests
// check; the cmd/repro binary prints the reports that EXPERIMENTS.md
// records.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Report is the outcome of one experiment.
type Report struct {
	ID      string
	Title   string
	Lines   []string           // preformatted table rows
	Metrics map[string]float64 // key numbers the package's tests check
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// table formats rows with aligned columns.
func table(header string, rows [][]string) []string {
	var buf strings.Builder
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	out := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	return out
}
