package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestDebugEndpoint(t *testing.T) {
	tr := New(nil)
	tr.BeginCampaign("c", 3)
	tr.Query(QueryEvent{Status: "sat", Dur: 2 * time.Millisecond, Conflicts: 7, BlastMisses: 1})
	tr.Span("symexec", 0, time.Now().Add(-time.Millisecond))
	tr.ProgramDone()

	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/scamv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c Counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Programs != 1 || c.Queries != 1 || c.Conflicts != 7 || c.BlastMisses != 1 {
		t.Errorf("/debug/scamv counters wrong: %+v", c)
	}
	if len(c.Stages) != 1 || c.Stages[0].Name != "symexec" || c.Stages[0].P50US == 0 {
		t.Errorf("/debug/scamv stages wrong: %+v", c.Stages)
	}

	// pprof is served; the expvar map, the SSE stream, the HTML page and
	// the flight recorder are not (/metrics, /debug/scamv, pprof and the
	// trace cover them).
	for path, want := range map[string]int{
		"/debug/vars":         http.StatusNotFound,
		"/debug/scamv/events": http.StatusNotFound,
		"/debug/scamv/live":   http.StatusNotFound,
		"/debug/scamv/flight": http.StatusNotFound,
		"/debug/pprof/":       http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestServeDebugPicksFreePort(t *testing.T) {
	tr := New(nil)
	srv, addr, err := ServeDebug("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/debug/scamv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestDebugSnapshotCarriesObservatoryFields(t *testing.T) {
	tr := New(nil)
	tr.PlatformVerdict(0, 0, "a53", "counterexample", time.Millisecond)

	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/scamv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c Counters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Platforms) != 1 || c.Platforms[0].Name != "a53" || c.Platforms[0].Counterexamples != 1 {
		t.Errorf("platforms = %+v", c.Platforms)
	}
}
