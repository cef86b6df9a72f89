package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// These tests pin the observatory's external surfaces independently of the
// Go types that produce them: the JSON documents are decoded into generic
// maps and compared by key path, and the Prometheus families by their
// HELP/TYPE lines, so renaming a key or dropping a family fails here even
// when the producing type changes in lockstep with its own tests.

// surfaceTracer is a tracer with every optional section populated: stages,
// platforms and a non-zero resumed count.
func surfaceTracer() *Tracer {
	tr := New(nil)
	tr.BeginCampaign("surface", 3)
	tr.Resume("surface", 1)
	tr.Span("testgen", 1, time.Now().Add(-2*time.Millisecond))
	tr.Query(QueryEvent{Prog: 1, Status: "sat", Dur: time.Millisecond, Conflicts: 3})
	tr.Verdict(1, 0, "counterexample", time.Millisecond)
	tr.PlatformVerdict(1, 0, "a53", "counterexample", time.Millisecond)
	tr.Retry(1, 1, 0, "transient")
	tr.Timeout(1, 1, 1)
	tr.Skip(1, 1, "retries exhausted")
	tr.Quarantine(2, "failures")
	tr.ProgramDone()
	return tr
}

// keyPaths flattens a decoded JSON document into sorted, de-duplicated key
// paths; array elements contribute their keys under "name[]".
func keyPaths(v any) []string {
	seen := make(map[string]bool)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				seen[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// wireKeys are the /debug/scamv document's key paths with every section
// present.
var wireKeys = []string{
	"ack_reads", "blast_hits", "blast_misses",
	"conflicts", "counterexamples", "decisions", "elapsed_us", "experiments",
	"inconclusive",
	"platforms", "platforms[].counterexamples", "platforms[].experiments",
	"platforms[].inconclusive", "platforms[].name",
	"programs", "propagations", "quarantines", "queries",
	"query_p50_us", "query_p95_us", "query_p99_us", "query_time_us",
	"resumed_programs", "retries", "skips",
	"stages", "stages[].busy_us", "stages[].count", "stages[].name",
	"stages[].p50_us", "stages[].p95_us", "stages[].p99_us",
	"timeouts", "total_programs",
}

func assertKeys(t *testing.T, what string, doc []byte, want []string) {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := keyPaths(v)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s key paths changed:\ngot  %q\nwant %q", what, got, want)
	}
}

func TestWireDocumentKeys(t *testing.T) {
	tr := surfaceTracer()
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/scamv")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "/debug/scamv", body.Bytes(), wireKeys)
}

func TestMetricsFamiliesGolden(t *testing.T) {
	tr := surfaceTracer()
	var buf bytes.Buffer
	tr.WriteMetrics(&buf)
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			got.WriteString(line)
		}
	}

	goldenPath := filepath.Join("testdata", "metrics_families.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics families drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}
