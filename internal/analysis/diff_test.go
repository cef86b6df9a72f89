package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// loadGoldenPair reads the committed miniature trace pair: the new trace is
// the old one with testgen spans and query durations ×8, conflicts ×10, and
// p1/t1's verdict flipped from inconclusive to counterexample.
func loadGoldenPair(t *testing.T) (oldRecs, newRecs []telemetry.Record) {
	t.Helper()
	var torn, err error
	oldRecs, torn, err = logdb.Load(filepath.Join("testdata", "diff_old.jsonl"), telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	newRecs, torn, err = logdb.Load(filepath.Join("testdata", "diff_new.jsonl"), telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	return oldRecs, newRecs
}

func TestDiffTracesFindsInjectedRegression(t *testing.T) {
	oldRecs, newRecs := loadGoldenPair(t)
	d := DiffTraces(oldRecs, newRecs)

	// The injected slowdown: testgen spans ×8 on both programs.
	var testgen *StageDiff
	for i := range d.Stages {
		if d.Stages[i].Name == "testgen" {
			testgen = &d.Stages[i]
		}
	}
	if testgen == nil {
		t.Fatal("no testgen stage in diff")
	}
	if testgen.Old.BusyUS != 11000 || testgen.New.BusyUS != 88000 {
		t.Errorf("testgen totals %dµs → %dµs, want 11000 → 88000", testgen.Old.BusyUS, testgen.New.BusyUS)
	}
	// Unchanged stages must diff to the identical distribution.
	for _, s := range d.Stages {
		if s.Name == "testgen" {
			continue
		}
		if s.Old.BusyUS != s.New.BusyUS || s.Old.Count != s.New.Count {
			t.Errorf("stage %s moved (%dµs → %dµs) despite identical records", s.Name, s.Old.BusyUS, s.New.BusyUS)
		}
	}

	// Query latency ×8, conflicts ×10, per program and overall.
	if d.Query.Old.Count != 4 || d.Query.New.Count != 4 {
		t.Errorf("query counts %d/%d, want 4/4", d.Query.Old.Count, d.Query.New.Count)
	}
	if d.Query.New.BusyUS != 8*d.Query.Old.BusyUS {
		t.Errorf("query total %dµs → %dµs, want ×8", d.Query.Old.BusyUS, d.Query.New.BusyUS)
	}
	if len(d.Efforts) != 2 {
		t.Fatalf("efforts = %d programs, want 2", len(d.Efforts))
	}
	// Worst regression first: p1 lost 41.3ms, p0 lost 35ms.
	if d.Efforts[0].Prog != 1 || d.Efforts[0].DeltaQueryTime() <= d.Efforts[1].DeltaQueryTime() {
		t.Errorf("efforts not sorted worst-first: %+v", d.Efforts)
	}
	for _, e := range d.Efforts {
		if e.New.Conflicts != 10*e.Old.Conflicts {
			t.Errorf("p%d conflicts %d → %d, want ×10", e.Prog, e.Old.Conflicts, e.New.Conflicts)
		}
	}

	// Verdict drift: exactly the one flipped experiment.
	if len(d.Verdicts) != 1 {
		t.Fatalf("verdict drift = %+v, want exactly one change", d.Verdicts)
	}
	v := d.Verdicts[0]
	if v.Prog != 1 || v.Test != 1 || v.Old != "inconclusive" || v.New != "counterexample" {
		t.Errorf("drift = %+v, want p1/t1 inconclusive→counterexample", v)
	}
}

func TestDiffReportGolden(t *testing.T) {
	oldRecs, newRecs := loadGoldenPair(t)
	got := DiffTraces(oldRecs, newRecs).String()

	goldenPath := filepath.Join("testdata", "diff_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("diff report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Byte stability: rendering the same pair again must be identical.
	if again := DiffTraces(oldRecs, newRecs).String(); again != got {
		t.Error("DiffReport.String is not deterministic across runs")
	}
}

func TestDiffTracesOneSided(t *testing.T) {
	oldRecs, _ := loadGoldenPair(t)
	d := DiffTraces(oldRecs, nil)
	if len(d.Verdicts) != 4 {
		t.Errorf("diff against empty trace: %d verdict changes, want 4 removals", len(d.Verdicts))
	}
	for _, v := range d.Verdicts {
		if v.New != "" {
			t.Errorf("removal has a new-side verdict: %+v", v)
		}
	}
	out := d.String()
	if !strings.Contains(out, "gone") {
		t.Error("one-sided diff should render removed latency as \"gone\"")
	}
	// And the mirror image.
	d = DiffTraces(nil, oldRecs)
	if !strings.Contains(d.String(), "new") || len(d.Verdicts) != 4 {
		t.Error("diff from empty trace should render additions")
	}
}
