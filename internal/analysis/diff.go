package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scamv/internal/telemetry"
)

// This file is the regression half of the observatory: given two trace files
// of the same (or similar) campaign — a known-good baseline and a fresh run —
// DiffTraces aligns them and reports what moved: per-stage latency deltas,
// per-program solver-effort regressions, and verdict drift. The report is a
// pure function of the two inputs (stable iteration orders everywhere), so
// the rendered text is byte-stable and golden-testable.

// StageDiff is one pipeline stage's latency distribution in both traces. A
// zero-count side means the stage only exists in the other trace.
type StageDiff struct {
	Name     string
	Old, New telemetry.StageCount
}

// EffortDiff is one program's solver effort in both traces, aligned by
// program index. A zero side means the program ran in only one trace.
type EffortDiff struct {
	Prog     int
	Old, New ProgramEffort
}

// DeltaQueryTime is the signed query-time movement for sorting: positive
// means the new trace spent longer in the solver for this program.
func (e EffortDiff) DeltaQueryTime() time.Duration {
	return e.New.QueryTime - e.Old.QueryTime
}

// VerdictChange is one experiment whose verdict differs between the traces,
// aligned by (program, test) — the drift that turns a soundness claim.
type VerdictChange struct {
	Prog, Test int
	Old, New   string // empty side: experiment ran in only one trace
}

// DiffReport is the full alignment of two traces.
type DiffReport struct {
	Old, New *TraceReport

	// Stages is the union of pipeline stages: old-trace pipeline order, then
	// stages that only appear in the new trace.
	Stages []StageDiff

	// Query is the overall solver-query latency distribution on both sides.
	Query StageDiff

	// Efforts is the per-program solver-effort alignment, sorted by
	// descending query-time regression (worst offender first).
	Efforts []EffortDiff

	// Verdicts lists every (program, test) whose verdict changed, sorted by
	// program then test.
	Verdicts []VerdictChange
}

// DiffTraces aligns two record sets. Records should come straight from
// logdb.Load with telemetry.CheckRecord; order within each trace does not
// matter beyond first-seen stage order.
func DiffTraces(oldRecs, newRecs []telemetry.Record) *DiffReport {
	d := &DiffReport{
		Old: AnalyzeTrace(oldRecs),
		New: AnalyzeTrace(newRecs),
	}

	// Stage union, old pipeline order first.
	oldStages := make(map[string]telemetry.StageCount, len(d.Old.Stages))
	for _, s := range d.Old.Stages {
		oldStages[s.Name] = s
	}
	newStages := make(map[string]telemetry.StageCount, len(d.New.Stages))
	for _, s := range d.New.Stages {
		newStages[s.Name] = s
	}
	seen := make(map[string]bool)
	for _, s := range d.Old.Stages {
		d.Stages = append(d.Stages, StageDiff{Name: s.Name, Old: s, New: newStages[s.Name]})
		seen[s.Name] = true
	}
	for _, s := range d.New.Stages {
		if !seen[s.Name] {
			d.Stages = append(d.Stages, StageDiff{Name: s.Name, New: s})
		}
	}

	d.Query = StageDiff{Name: "all queries", Old: d.Old.QueryAll, New: d.New.QueryAll}

	// Program union, aligned by index.
	oldEff := make(map[int]ProgramEffort, len(d.Old.ByProgram))
	for _, e := range d.Old.ByProgram {
		oldEff[e.Prog] = e
	}
	newEff := make(map[int]ProgramEffort, len(d.New.ByProgram))
	for _, e := range d.New.ByProgram {
		newEff[e.Prog] = e
	}
	progs := make(map[int]bool)
	for p := range oldEff {
		progs[p] = true
	}
	for p := range newEff {
		progs[p] = true
	}
	for p := range progs {
		d.Efforts = append(d.Efforts, EffortDiff{Prog: p, Old: oldEff[p], New: newEff[p]})
	}
	sort.Slice(d.Efforts, func(i, j int) bool {
		di, dj := d.Efforts[i].DeltaQueryTime(), d.Efforts[j].DeltaQueryTime()
		if di != dj {
			return di > dj
		}
		return d.Efforts[i].Prog < d.Efforts[j].Prog
	})

	// Verdict drift by (prog, test); re-runs within one trace keep the last
	// verdict, matching how a campaign's final line of record reads.
	type key struct{ prog, test int }
	oldV := make(map[key]string)
	for _, rec := range oldRecs {
		if rec.Kind == "verdict" {
			oldV[key{rec.Prog, rec.Test}] = rec.Verdict
		}
	}
	newV := make(map[key]string)
	for _, rec := range newRecs {
		if rec.Kind == "verdict" {
			newV[key{rec.Prog, rec.Test}] = rec.Verdict
		}
	}
	keys := make(map[key]bool)
	for k := range oldV {
		keys[k] = true
	}
	for k := range newV {
		keys[k] = true
	}
	for k := range keys {
		if oldV[k] != newV[k] {
			d.Verdicts = append(d.Verdicts, VerdictChange{
				Prog: k.prog, Test: k.test, Old: oldV[k], New: newV[k]})
		}
	}
	sort.Slice(d.Verdicts, func(i, j int) bool {
		if d.Verdicts[i].Prog != d.Verdicts[j].Prog {
			return d.Verdicts[i].Prog < d.Verdicts[j].Prog
		}
		return d.Verdicts[i].Test < d.Verdicts[j].Test
	})
	return d
}

// maxEffortRows caps the per-program regression table like the single-trace
// report's effort table.
const maxEffortRows = 20

// String renders the diff. Layout mirrors TraceReport.String: aligned
// tables, a section per concern, regressions first.
func (d *DiffReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace diff: old %d campaigns/%d programs/%d queries/%d verdicts → new %d/%d/%d/%d\n",
		len(d.Old.Campaigns), d.Old.Programs, d.Old.Queries, d.Old.Verdicts,
		len(d.New.Campaigns), d.New.Programs, d.New.Queries, d.New.Verdicts)

	fmt.Fprintf(&sb, "\nstage latency (old → new):\n")
	rows := [][]string{{"stage", "count", "total", "Δtotal", "p95", "p99"}}
	for _, s := range d.Stages {
		rows = append(rows, []string{
			s.Name,
			fmtPair("%d", s.Old.Count, s.New.Count),
			fmtUS(s.Old.BusyUS) + " → " + fmtUS(s.New.BusyUS),
			fmtRatio(s.Old.BusyUS, s.New.BusyUS),
			fmtUS(s.Old.P95US) + " → " + fmtUS(s.New.P95US),
			fmtUS(s.Old.P99US) + " → " + fmtUS(s.New.P99US),
		})
	}
	writeAligned(&sb, rows)

	fmt.Fprintf(&sb, "\nsolver query latency (old → new):\n")
	rows = [][]string{{"", "count", "total", "Δtotal", "p95", "p99"}}
	rows = append(rows, []string{
		d.Query.Name,
		fmtPair("%d", d.Query.Old.Count, d.Query.New.Count),
		fmtUS(d.Query.Old.BusyUS) + " → " + fmtUS(d.Query.New.BusyUS),
		fmtRatio(d.Query.Old.BusyUS, d.Query.New.BusyUS),
		fmtUS(d.Query.Old.P95US) + " → " + fmtUS(d.Query.New.P95US),
		fmtUS(d.Query.Old.P99US) + " → " + fmtUS(d.Query.New.P99US),
	})
	writeAligned(&sb, rows)

	if len(d.Efforts) > 0 {
		fmt.Fprintf(&sb, "\nsolver effort per program (by Δ query time, worst first):\n")
		rows = [][]string{{"prog", "q-time", "Δ", "queries", "conflicts", "props"}}
		shown := d.Efforts
		if len(shown) > maxEffortRows {
			shown = shown[:maxEffortRows]
		}
		for _, e := range shown {
			rows = append(rows, []string{
				fmt.Sprintf("p%d", e.Prog),
				fmtUS(e.Old.QueryTime.Microseconds()) + " → " + fmtUS(e.New.QueryTime.Microseconds()),
				fmtRatio(e.Old.QueryTime.Microseconds(), e.New.QueryTime.Microseconds()),
				fmtPair("%d", e.Old.Queries, e.New.Queries),
				fmtPair("%d", e.Old.Conflicts, e.New.Conflicts),
				fmtPair("%d", e.Old.Propagations, e.New.Propagations),
			})
		}
		writeAligned(&sb, rows)
		if hidden := len(d.Efforts) - len(shown); hidden > 0 {
			fmt.Fprintf(&sb, "  … and %d more programs\n", hidden)
		}
	}

	if len(d.Verdicts) == 0 {
		fmt.Fprintf(&sb, "\nverdict drift: none\n")
	} else {
		fmt.Fprintf(&sb, "\nverdict drift (%d experiments changed):\n", len(d.Verdicts))
		rows = [][]string{{"prog", "test", "old", "new"}}
		for _, v := range d.Verdicts {
			o, n := v.Old, v.New
			if o == "" {
				o = "(absent)"
			}
			if n == "" {
				n = "(absent)"
			}
			rows = append(rows, []string{
				fmt.Sprintf("p%d", v.Prog), fmt.Sprintf("t%d", v.Test), o, n})
		}
		writeAligned(&sb, rows)
	}
	return sb.String()
}

// fmtPair renders "old → new", collapsing to one value when unchanged.
func fmtPair(format string, a, b int64) string {
	if a == b {
		return fmt.Sprintf(format, a)
	}
	return fmt.Sprintf(format+" → "+format, a, b)
}

// fmtRatio renders the new/old multiplier: "×1.00" unchanged, "×8.13" an
// eightfold regression, "×0.50" an improvement, "new"/"gone" for one-sided.
func fmtRatio(a, b int64) string {
	switch {
	case a == 0 && b == 0:
		return "—"
	case a == 0:
		return "new"
	case b == 0:
		return "gone"
	default:
		return fmt.Sprintf("×%.2f", float64(b)/float64(a))
	}
}
