package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scamv/internal/telemetry"
)

// This file ingests telemetry trace files (scamv -trace run.jsonl) and
// renders the latency side of a campaign: per-stage and per-query
// p50/p95/p99, and where the solver effort went program by program. The
// aggregates the live Tracer also holds come from telemetry.Replay, which
// runs the records through the Tracer's own aggregator, so -report and the
// live view cannot disagree; this file adds only what the Tracer does not
// keep.

// ProgramEffort is the solver work one program cost during test generation,
// plus its experiment outcome — the per-program breakdown that shows which
// programs were expensive and whether the effort paid off.
type ProgramEffort struct {
	Prog      int
	Queries   int64
	QueryTime time.Duration

	Conflicts    int64
	Decisions    int64
	Propagations int64
	BlastHits    int64
	BlastMisses  int64
	AckReads     int64

	Experiments     int64
	Counterexamples int64
}

// TraceReport is the aggregate of one trace file.
type TraceReport struct {
	Campaigns []string // campaign names in trace order
	Programs  int      // expected program count (sum over campaigns)

	Spans    int64
	Queries  int64
	Verdicts int64

	// Stages holds one latency distribution per pipeline stage, in
	// first-seen (pipeline) order.
	Stages []telemetry.StageCount

	// QueryAll is the latency distribution over every solver query;
	// QueryByStatus splits it by solver outcome (sat, unsat, unknown).
	QueryAll      telemetry.StageCount
	QueryByStatus []telemetry.StageCount

	// ExecDist is the per-test execution latency (verdict records).
	ExecDist telemetry.StageCount

	// ByProgram is the solver-effort breakdown, sorted by descending
	// query time.
	ByProgram []ProgramEffort

	// Resilience counters (schema v2 kinds); all zero for a healthy
	// campaign or a v1 trace.
	Retries     int64
	Timeouts    int64
	Skips       int64
	Quarantines int64

	// Platforms holds the per-platform verdict breakdown of matrix campaigns
	// (schema v4 "platform" records), sorted by platform name; empty for
	// single-platform traces.
	Platforms []PlatformEffort
}

// PlatformEffort is one matrix platform's verdict counts and execution
// latency distribution.
type PlatformEffort struct {
	telemetry.PlatformCount
	Exec telemetry.StageCount
}

// AnalyzeTrace aggregates trace records into a report.
func AnalyzeTrace(recs []telemetry.Record) *TraceReport {
	c := telemetry.Replay(recs)
	r := &TraceReport{
		Programs: int(c.TotalPrograms),
		Queries:  c.Queries,
		Verdicts: c.Experiments,
		Stages:   c.Stages,
		QueryAll: telemetry.StageCount{Name: "all", Count: c.Queries, BusyUS: c.QueryTimeUS,
			P50US: c.QueryP50US, P95US: c.QueryP95US, P99US: c.QueryP99US},
		Retries:     c.Retries,
		Timeouts:    c.Timeouts,
		Skips:       c.Skips,
		Quarantines: c.Quarantines,
	}
	for _, s := range c.Stages {
		r.Spans += s.Count
	}

	statusHists := make(map[string]*telemetry.Histogram)
	var statusOrder []string
	var execHist telemetry.Histogram
	platExec := make(map[string]*telemetry.Histogram)
	progs := make(map[int]*ProgramEffort)
	prog := func(p int) *ProgramEffort {
		pe := progs[p]
		if pe == nil {
			pe = &ProgramEffort{Prog: p}
			progs[p] = pe
		}
		return pe
	}
	for _, rec := range recs {
		d := time.Duration(rec.DurUS) * time.Microsecond
		switch rec.Kind {
		case "campaign":
			r.Campaigns = append(r.Campaigns, rec.Name)
		case "query":
			h := statusHists[rec.Status]
			if h == nil {
				h = &telemetry.Histogram{}
				statusHists[rec.Status] = h
				statusOrder = append(statusOrder, rec.Status)
			}
			h.Observe(d)
			pe := prog(rec.Prog)
			pe.Queries++
			pe.QueryTime += d
			pe.Conflicts += rec.Conflicts
			pe.Decisions += rec.Decisions
			pe.Propagations += rec.Propagations
			pe.BlastHits += rec.BlastHits
			pe.BlastMisses += rec.BlastMisses
			pe.AckReads += rec.AckReads
		case "verdict":
			execHist.Observe(d)
			pe := prog(rec.Prog)
			pe.Experiments++
			if rec.Verdict == "counterexample" {
				pe.Counterexamples++
			}
		case "platform":
			h := platExec[rec.Name]
			if h == nil {
				h = &telemetry.Histogram{}
				platExec[rec.Name] = h
			}
			h.Observe(d)
		}
	}

	sort.Strings(statusOrder)
	for _, st := range statusOrder {
		r.QueryByStatus = append(r.QueryByStatus, statusHists[st].Summary(st))
	}
	r.ExecDist = execHist.Summary("execute/test")
	for _, pc := range c.Platforms {
		r.Platforms = append(r.Platforms, PlatformEffort{PlatformCount: pc, Exec: platExec[pc.Name].Summary(pc.Name)})
	}
	for _, pe := range progs {
		r.ByProgram = append(r.ByProgram, *pe)
	}
	sort.Slice(r.ByProgram, func(i, j int) bool {
		if r.ByProgram[i].QueryTime != r.ByProgram[j].QueryTime {
			return r.ByProgram[i].QueryTime > r.ByProgram[j].QueryTime
		}
		return r.ByProgram[i].Prog < r.ByProgram[j].Prog
	})
	return r
}

// maxProgramRows caps the per-program effort table; a paper-scale campaign
// has hundreds of programs and the tail rows carry no insight.
const maxProgramRows = 20

// String renders the report: stage latency table, query latency split by
// status, and the top of the per-program solver-effort breakdown.
func (r *TraceReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d campaigns, %d programs expected, %d spans, %d queries, %d verdicts\n",
		len(r.Campaigns), r.Programs, r.Spans, r.Queries, r.Verdicts)

	// Resilience line only when something went wrong: healthy-trace reports
	// are unchanged.
	if r.Retries > 0 || r.Timeouts > 0 || r.Skips > 0 || r.Quarantines > 0 {
		fmt.Fprintf(&sb, "resilience: %d retries (%d timeouts), %d skips, %d quarantined\n",
			r.Retries, r.Timeouts, r.Skips, r.Quarantines)
	}

	fmt.Fprintf(&sb, "\nstage latency (per program):\n")
	writeDistTable(&sb, "stage", r.Stages)

	fmt.Fprintf(&sb, "\nsolver query latency:\n")
	dists := append([]telemetry.StageCount{r.QueryAll}, r.QueryByStatus...)
	writeDistTable(&sb, "status", dists)

	fmt.Fprintf(&sb, "\nexecution latency (per test):\n")
	writeDistTable(&sb, "", []telemetry.StageCount{r.ExecDist})

	if len(r.Platforms) > 0 {
		fmt.Fprintf(&sb, "\nplatform matrix (per-platform verdicts):\n")
		rows := [][]string{{"platform", "exps", "cex", "inconcl", "exe-total", "exe-p95"}}
		for _, pe := range r.Platforms {
			rows = append(rows, []string{
				pe.Name,
				fmt.Sprintf("%d", pe.Experiments),
				fmt.Sprintf("%d", pe.Counterexamples),
				fmt.Sprintf("%d", pe.Inconclusive),
				fmtUS(pe.Exec.BusyUS),
				fmtUS(pe.Exec.P95US),
			})
		}
		writeAligned(&sb, rows)
	}

	if len(r.ByProgram) > 0 {
		fmt.Fprintf(&sb, "\nsolver effort per program (by query time):\n")
		rows := [][]string{{"prog", "queries", "q-time", "conflicts", "decisions",
			"props", "blast h/m", "ack-reads", "exps", "cex"}}
		shown := r.ByProgram
		if len(shown) > maxProgramRows {
			shown = shown[:maxProgramRows]
		}
		for _, pe := range shown {
			rows = append(rows, []string{
				fmt.Sprintf("p%d", pe.Prog),
				fmt.Sprintf("%d", pe.Queries),
				fmtUS(pe.QueryTime.Microseconds()),
				fmt.Sprintf("%d", pe.Conflicts),
				fmt.Sprintf("%d", pe.Decisions),
				fmt.Sprintf("%d", pe.Propagations),
				fmt.Sprintf("%d/%d", pe.BlastHits, pe.BlastMisses),
				fmt.Sprintf("%d", pe.AckReads),
				fmt.Sprintf("%d", pe.Experiments),
				fmt.Sprintf("%d", pe.Counterexamples),
			})
		}
		writeAligned(&sb, rows)
		if hidden := len(r.ByProgram) - len(shown); hidden > 0 {
			fmt.Fprintf(&sb, "  … and %d more programs\n", hidden)
		}
	}
	return sb.String()
}

func writeDistTable(sb *strings.Builder, label string, dists []telemetry.StageCount) {
	rows := [][]string{{label, "count", "total", "p50", "p95", "p99"}}
	for _, d := range dists {
		rows = append(rows, []string{d.Name, fmt.Sprintf("%d", d.Count),
			fmtUS(d.BusyUS), fmtUS(d.P50US), fmtUS(d.P95US), fmtUS(d.P99US)})
	}
	writeAligned(sb, rows)
}

func writeAligned(sb *strings.Builder, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		sb.WriteString(" ")
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
}

// fmtUS renders a microsecond count compactly.
func fmtUS(us int64) string {
	d := time.Duration(us) * time.Microsecond
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
