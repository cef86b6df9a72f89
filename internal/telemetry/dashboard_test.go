package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestLivePageServes(t *testing.T) {
	srv := httptest.NewServer(DebugMux(New(nil)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/scamv/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	page := string(body)
	if !strings.Contains(page, "<!doctype html>") || !strings.Contains(page, "EventSource") {
		t.Error("live page missing expected skeleton")
	}
	// Zero external dependencies: no scripts, styles, images, or fonts
	// fetched from anywhere but the serving process itself.
	for _, needle := range []string{"http://", "https://", "src=", "href=", "@import", "url("} {
		if strings.Contains(page, needle) {
			t.Errorf("live page references an external asset (%q)", needle)
		}
	}
}

func TestSSEStreamTicks(t *testing.T) {
	tr := New(nil)
	tr.BeginCampaign("sse", 2)
	tr.Query(QueryEvent{Status: "sat", Dur: time.Millisecond})
	srv := httptest.NewServer(DebugMux(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/scamv/events?interval_ms=30")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}

	// Read two event frames: the immediate snapshot plus one tick.
	sc := bufio.NewScanner(resp.Body)
	var frames []Counters
	for sc.Scan() && len(frames) < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var c Counters
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &c); err != nil {
			t.Fatalf("SSE frame is not JSON: %v", err)
		}
		frames = append(frames, c)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d SSE frames, want 2 (scan err %v)", len(frames), sc.Err())
	}
	for i, c := range frames {
		if c.TotalPrograms != 2 || c.Queries != 1 {
			t.Errorf("frame %d: total_programs=%d queries=%d, want 2/1", i, c.TotalPrograms, c.Queries)
		}
	}
}

func TestSSEIntervalFloor(t *testing.T) {
	srv := httptest.NewServer(DebugMux(New(nil)))
	defer srv.Close()

	// A hostile interval_ms=1 must be floored, not honored: over ~100ms we
	// should see far fewer than 100 frames.
	resp, err := http.Get(srv.URL + "/debug/scamv/events?interval_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := time.After(100 * time.Millisecond)
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				frames++
			}
		}
	}()
	<-done
	resp.Body.Close()
	<-ch
	if frames > 10 {
		t.Errorf("%d frames in 100ms despite the interval floor", frames)
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
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 8, Dir: dir, StallThreshold: -1})
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
	tr.SetPipelineSource(func() []PipelineStage {
		return []PipelineStage{{Name: "encode", Workers: 3, In: 5, Out: 4,
			BusyUS: 1000, WaitUS: 2000, StallUS: 3000}}
	})
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 4, StallThreshold: -1})
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
	if len(c.Pipeline) != 1 || c.Pipeline[0].StallUS != 3000 || c.Pipeline[0].Workers != 3 {
		t.Errorf("pipeline = %+v", c.Pipeline)
	}
	if c.Flight == nil || c.Flight.RingSize != 4 {
		t.Errorf("flight = %+v", c.Flight)
	}
}
