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

	// pprof is served; the expvar map, the SSE stream and the HTML page are
	// not (/metrics, /debug/scamv and pprof cover them).
	for path, want := range map[string]int{
		"/debug/vars":         http.StatusNotFound,
		"/debug/scamv/events": http.StatusNotFound,
		"/debug/scamv/live":   http.StatusNotFound,
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

func TestFlightEndpoint(t *testing.T) {
	tr := New(nil)
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	// No recorder attached: 404.
	resp, err := http.Get(srv.URL + "/debug/scamv/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without a recorder, want 404", resp.StatusCode)
	}

	dir := t.TempDir()
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 8, Dir: dir})
	defer fr.Stop()
	tr.Verdict(0, 0, "ok", time.Millisecond)

	// GET: status document.
	resp, err = http.Get(srv.URL + "/debug/scamv/flight")
	if err != nil {
		t.Fatal(err)
	}
	var st FlightStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.RingSize != 8 || st.Events != 1 {
		t.Fatalf("GET status = %+v (err %v), want ring_size=8 events=1", st, err)
	}

	// POST: forced capture returns the bundle path.
	resp, err = http.Post(srv.URL+"/debug/scamv/flight?reason=smoke", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cap struct {
		Bundle string `json:"bundle"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cap)
	resp.Body.Close()
	if err != nil || cap.Error != "" || cap.Bundle == "" {
		t.Fatalf("POST capture = %+v (err %v)", cap, err)
	}
	assertBundle(t, cap.Bundle, "smoke")
}

func TestDebugSnapshotCarriesObservatoryFields(t *testing.T) {
	tr := New(nil)
	tr.PlatformVerdict(0, 0, "a53", "counterexample", time.Millisecond)
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 4})
	defer fr.Stop()

	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/scamv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c liveDoc
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Platforms) != 1 || c.Platforms[0].Name != "a53" || c.Platforms[0].Counterexamples != 1 {
		t.Errorf("platforms = %+v", c.Platforms)
	}
	if c.Flight == nil || c.Flight.RingSize != 4 {
		t.Errorf("flight = %+v", c.Flight)
	}
}
