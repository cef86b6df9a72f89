package scamv

import (
	"fmt"
	"strings"
	"time"
)

// FormatTable renders campaign results side by side in the layout of the
// paper's Table 1: one column per campaign, one row per metric — followed by
// one platform-matrix block per matrix campaign.
func FormatTable(results ...*Result) string {
	// Resilience rows appear only when some result has nonzero counters:
	// a healthy FailFast campaign renders byte-identically to the
	// pre-resilience layout.
	resilienceRows := false
	for _, r := range results {
		if r.SkippedTests > 0 || r.QuarantinedPrograms > 0 || r.Retries > 0 || r.Timeouts > 0 {
			resilienceRows = true
		}
	}
	head := []string{
		"Model",
		"Refinement",
		"Coverage",
		"Programs",
		"Prog. w. Count.",
		"Experiments",
		"- Counterexample",
		"- Inconclusive",
		"- Avg. Gen. time",
		"- Avg. Exe. time",
		"- T.T.C.",
		"- First c.e.",
	}
	if resilienceRows {
		head = append(head,
			"- Skipped tests",
			"- Quarantined",
			"- Retries",
			"- Timeouts",
		)
	}
	rows := make([][]string, len(head))
	for k := range rows {
		rows[k] = []string{head[k]}
	}
	for _, r := range results {
		ttc, first := "-", "-"
		if r.Found {
			ttc = fmtDur(r.TTC)
			first = fmt.Sprintf("p%d/t%d", r.FirstCEProgram, r.FirstCETest)
		}
		col := []string{
			r.Model,
			r.Refinement,
			r.Coverage,
			fmt.Sprintf("%d", r.Programs),
			fmt.Sprintf("%d", r.ProgramsWithCounter),
			fmt.Sprintf("%d", r.Experiments),
			fmt.Sprintf("%d", r.Counterexamples),
			fmt.Sprintf("%d", r.Inconclusive),
			fmtDur(r.AvgGen()),
			fmtDur(r.AvgExe()),
			ttc,
			first,
		}
		if resilienceRows {
			col = append(col,
				fmt.Sprintf("%d", r.SkippedTests),
				fmt.Sprintf("%d", r.QuarantinedPrograms),
				fmt.Sprintf("%d", r.Retries),
				fmt.Sprintf("%d", r.Timeouts),
			)
		}
		for k := range rows {
			rows[k] = append(rows[k], col[k])
		}
	}
	var sb strings.Builder
	writeAligned(&sb, "", rows)
	for _, r := range results {
		if len(r.Matrix) > 0 {
			sb.WriteString("\n")
			sb.WriteString(FormatMatrix(r))
		}
	}
	return sb.String()
}

// writeAligned writes rows as left-aligned columns two spaces apart, each
// line prefixed by indent. Widths count bytes while fmt pads by runes, so a
// column whose widest cell holds a "µ" comes out a space wider; the goldens
// pin that layout.
func writeAligned(sb *strings.Builder, indent string, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for _, row := range rows {
		sb.WriteString(indent)
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
}

// fmtDur renders a duration compactly with a sensible unit.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Summary renders a one-line digest of a campaign.
func (r *Result) Summary() string {
	ttc := "no counterexample"
	if r.Found {
		ttc = fmt.Sprintf("first counterexample at p%d/t%d after %s",
			r.FirstCEProgram, r.FirstCETest, fmtDur(r.TTC))
	}
	return fmt.Sprintf("%s: %d programs (%d w/ counterexamples), %d experiments, %d counterexamples, %d inconclusive, %s",
		r.Name, r.Programs, r.ProgramsWithCounter, r.Experiments,
		r.Counterexamples, r.Inconclusive, ttc)
}
