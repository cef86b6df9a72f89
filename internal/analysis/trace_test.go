package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// synthTrace builds a small synthetic trace: one campaign, two programs
// with asymmetric solver effort, three stages, and a counterexample.
func synthTrace() []telemetry.Record {
	return []telemetry.Record{
		{V: 1, Kind: "campaign", Name: "t/refined", Programs: 2},
		{V: 1, Kind: "span", Prog: 0, Stage: "proggen", DurUS: 100},
		{V: 1, Kind: "span", Prog: 0, Stage: "testgen", DurUS: 4000},
		{V: 1, Kind: "span", Prog: 0, Stage: "execute", DurUS: 900},
		{V: 1, Kind: "query", Prog: 0, Status: "sat", DurUS: 2000,
			Conflicts: 5, Decisions: 40, Propagations: 600, BlastHits: 10, BlastMisses: 3, AckReads: 4},
		{V: 1, Kind: "query", Prog: 0, Status: "unsat", DurUS: 1500,
			Conflicts: 9, Decisions: 20, Propagations: 400},
		{V: 1, Kind: "query", Prog: 1, Status: "sat", DurUS: 300, Decisions: 8, Propagations: 50},
		{V: 1, Kind: "span", Prog: 1, Stage: "proggen", DurUS: 120},
		{V: 1, Kind: "span", Prog: 1, Stage: "testgen", DurUS: 800},
		{V: 1, Kind: "span", Prog: 1, Stage: "execute", DurUS: 700},
		{V: 1, Kind: "verdict", Prog: 0, Test: 0, Verdict: "counterexample", DurUS: 50},
		{V: 1, Kind: "verdict", Prog: 0, Test: 1, Verdict: "pass", DurUS: 40},
		{V: 1, Kind: "verdict", Prog: 1, Test: 0, Verdict: "inconclusive", DurUS: 45},
	}
}

func TestAnalyzeTrace(t *testing.T) {
	r := AnalyzeTrace(synthTrace())

	if len(r.Campaigns) != 1 || r.Campaigns[0] != "t/refined" || r.Programs != 2 {
		t.Fatalf("campaign header wrong: %+v", r)
	}
	if r.Spans != 6 || r.Queries != 3 || r.Verdicts != 3 {
		t.Fatalf("record counts wrong: spans=%d queries=%d verdicts=%d", r.Spans, r.Queries, r.Verdicts)
	}

	// Stages keep first-seen (pipeline) order.
	var order []string
	for _, d := range r.Stages {
		order = append(order, d.Name)
	}
	if got := strings.Join(order, ","); got != "proggen,testgen,execute" {
		t.Errorf("stage order = %s", got)
	}
	for _, d := range r.Stages {
		if d.Count != 2 {
			t.Errorf("stage %s count = %d, want 2", d.Name, d.Count)
		}
	}
	if r.Stages[1].BusyUS != 4800 {
		t.Errorf("testgen total = %dµs, want 4800", r.Stages[1].BusyUS)
	}
	// Quantiles come from log2 buckets: upper bound of the hit bucket,
	// clamped to the observed max — so p99 equals the max observation.
	if r.Stages[1].P99US != 4000 {
		t.Errorf("testgen p99 = %dµs, want clamp to max 4000", r.Stages[1].P99US)
	}

	if r.QueryAll.Count != 3 || r.QueryAll.BusyUS != 3800 {
		t.Errorf("query-all dist wrong: %+v", r.QueryAll)
	}
	statuses := map[string]int64{}
	for _, d := range r.QueryByStatus {
		statuses[d.Name] = d.Count
	}
	if statuses["sat"] != 2 || statuses["unsat"] != 1 {
		t.Errorf("status split wrong: %v", statuses)
	}
	if r.ExecDist.Count != 3 || r.ExecDist.BusyUS != 135 {
		t.Errorf("exec dist wrong: %+v", r.ExecDist)
	}

	// Per-program effort: program 0 did more query work and sorts first.
	if len(r.ByProgram) != 2 || r.ByProgram[0].Prog != 0 {
		t.Fatalf("program sort wrong: %+v", r.ByProgram)
	}
	p0 := r.ByProgram[0]
	if p0.Queries != 2 || p0.QueryTime != 3500*time.Microsecond ||
		p0.Conflicts != 14 || p0.Decisions != 60 || p0.Propagations != 1000 ||
		p0.BlastHits != 10 || p0.BlastMisses != 3 || p0.AckReads != 4 {
		t.Errorf("program 0 effort wrong: %+v", p0)
	}
	if p0.Experiments != 2 || p0.Counterexamples != 1 {
		t.Errorf("program 0 outcome wrong: %+v", p0)
	}

	out := r.String()
	for _, want := range []string{"stage latency", "solver query latency",
		"solver effort per program", "p50", "p95", "p99", "testgen", "unsat", "p0", "blast h/m"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// A schema v3 "shape" record, written by a since-deleted campaign shape
	// cache, still loads and leaves the report unchanged.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range synthTrace() {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString(`{"v":3,"kind":"shape","prog":0,"hit":true}` + "\n")
	withShape, torn, err := logdb.Read(&buf, telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	if len(withShape) != len(synthTrace())+1 {
		t.Fatalf("loaded %d records, want %d", len(withShape), len(synthTrace())+1)
	}
	if got := AnalyzeTrace(withShape).String(); got != out {
		t.Errorf("shape record changed the report:\n%s\nwant:\n%s", got, out)
	}
}

// TestAnalyzeTraceEmpty checks the zero-duration / empty-trace edge: no
// divisions by zero, no panic, a rendering that says so.
func TestAnalyzeTraceEmpty(t *testing.T) {
	r := AnalyzeTrace(nil)
	if r.Spans != 0 || r.Queries != 0 || r.Verdicts != 0 || len(r.ByProgram) != 0 {
		t.Fatalf("empty trace not empty: %+v", r)
	}
	out := r.String()
	if !strings.Contains(out, "0 spans, 0 queries, 0 verdicts") {
		t.Errorf("empty report header wrong:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN in empty report:\n%s", out)
	}

	// Zero-duration records (a campaign faster than the µs clock) must
	// keep counts while rendering zero latencies.
	r = AnalyzeTrace([]telemetry.Record{
		{V: 1, Kind: "span", Stage: "proggen"},
		{V: 1, Kind: "query", Status: "sat"},
		{V: 1, Kind: "verdict", Verdict: "pass"},
	})
	if r.Spans != 1 || r.QueryAll.Count != 1 || r.ExecDist.Count != 1 {
		t.Fatalf("zero-duration records lost: %+v", r)
	}
	if r.QueryAll.P99US != 0 || r.Stages[0].BusyUS != 0 {
		t.Errorf("zero durations should stay zero: %+v", r.QueryAll)
	}
	if s := r.String(); strings.Contains(s, "NaN") {
		t.Errorf("NaN in zero-duration report:\n%s", s)
	}
}

// TestProgramTableCap checks the per-program table stays bounded and says
// how many rows it hid.
func TestProgramTableCap(t *testing.T) {
	var recs []telemetry.Record
	for p := 0; p < maxProgramRows+7; p++ {
		recs = append(recs, telemetry.Record{V: 1, Kind: "query", Prog: p,
			Status: "sat", DurUS: int64(1000 + p)})
	}
	r := AnalyzeTrace(recs)
	out := r.String()
	if !strings.Contains(out, "… and 7 more programs") {
		t.Errorf("cap note missing:\n%s", out)
	}
	if strings.Count(out, "\n p") > maxProgramRows+1 {
		t.Errorf("program table not capped:\n%s", out)
	}
}
