package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// TestTraceReportGolden pins the rendered -report of a trace holding every
// record kind: campaign, span, query (each status), verdict, platform, the
// resilience kinds, resume, and three retired kinds that readers ignore: v5
// "breaker" records, a v5 "checkpoint" record and a v3 "shape" record.
func TestTraceReportGolden(t *testing.T) {
	recs, torn, err := logdb.Load(filepath.Join("testdata", "report_all.jsonl"), telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, rec := range recs {
		kinds[rec.Kind] = true
	}
	for _, k := range []string{"campaign", "span", "query", "verdict", "platform", "retry",
		"timeout", "skip", "quarantine", "breaker", "resume", "checkpoint", "shape"} {
		if !kinds[k] {
			t.Errorf("testdata trace lacks a %q record", k)
		}
	}
	got := AnalyzeTrace(recs).String()

	goldenPath := filepath.Join("testdata", "report_golden.txt")
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
		t.Errorf("trace report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
