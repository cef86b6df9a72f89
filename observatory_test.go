package scamv

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// TestObservatory is the end-to-end smoke of the campaign observatory: a
// tiny campaign with the aggregates-only tracer and a debug endpoint on an
// ephemeral port (at the address ServeDebug returns) — then scrape /metrics
// and read the /debug/scamv document. This is what `make obs-smoke` runs.
func TestObservatory(t *testing.T) {
	tr := telemetry.New(nil)
	srv, addr, err := telemetry.ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	e := mlineCampaign()
	e.Name = "obs-smoke"
	e.Programs = 2
	e.Parallel = 2
	e.Trace = tr
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments == 0 {
		t.Fatal("smoke campaign ran no experiments")
	}

	// /metrics: the families the campaign must have populated.
	body := httpGet(t, base+"/metrics")
	for _, family := range []string{
		"# TYPE scamv_experiments_total counter",
		"# TYPE scamv_solver_queries_total counter",
		"# TYPE scamv_query_duration_seconds histogram",
		"# TYPE scamv_stage_duration_seconds histogram",
		"scamv_query_duration_seconds_bucket{le=\"+Inf\"}",
		"scamv_stage_busy_seconds_total{stage=\"testgen\"}",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if strings.Contains(body, "scamv_experiments_total 0\n") {
		t.Error("/metrics shows zero experiments after the campaign")
	}

	// The live document, with real campaign aggregates in it.
	var doc struct {
		Experiments int64 `json:"experiments"`
		Stages      []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/scamv")), &doc); err != nil {
		t.Fatalf("/debug/scamv is not JSON: %v", err)
	}
	if doc.Experiments != int64(res.Experiments) {
		t.Errorf("/debug/scamv experiments = %d, want %d", doc.Experiments, res.Experiments)
	}
	if len(doc.Stages) == 0 {
		t.Error("/debug/scamv has no per-stage span aggregates")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestObservatoryTornTrace covers the -report satellite at the library
// level: a campaign trace with a torn final line still loads, with the torn
// line returned as torn.
func TestObservatoryTornTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := telemetry.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	e := mlineCampaign()
	e.Name = "torn-smoke"
	e.Programs = 2
	e.Trace = tr
	if _, err := Run(e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	full, torn, err := logdb.Load(path, telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	// Tear the final line mid-record, as a kill -9 during append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := logdb.Load(path, telemetry.CheckRecord)
	if err != nil {
		t.Fatal(err)
	}
	if torn == nil || len(recs) != len(full)-1 {
		t.Errorf("torn load: %d records, torn %v; want %d records and a torn line",
			len(recs), torn, len(full)-1)
	}
}
