package scamv

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"scamv/internal/telemetry"
)

// benchObsRow is one configuration's entry in BENCH_obs.json.
type benchObsRow struct {
	Mode            string  `json:"mode"` // "trace" or "observatory"
	Programs        int     `json:"programs"`
	Experiments     int     `json:"experiments"`
	Counterexamples int     `json:"counterexamples"`
	Queries         int     `json:"queries"`
	WallMS          float64 `json:"wall_ms"`
	MetricsScrapes  int     `json:"metrics_scrapes,omitempty"`
	SSETicks        int     `json:"sse_ticks,omitempty"`
}

// benchObsRun runs the MLine campaign with a full JSONL tracer; with
// observatory=true the whole observability plane rides along: debug HTTP
// server, a /metrics scraper polling every 50ms, an SSE client ticking at
// 50ms, and an armed flight recorder — the worst realistic scrape pressure.
func benchObsRun(t *testing.T, observatory bool, parallel int) benchObsRow {
	t.Helper()
	e := mlineCampaign()
	e.Name = "bench-obs-mline"
	e.Programs = 8
	e.Parallel = parallel

	tr, err := telemetry.Create(filepath.Join(t.TempDir(), "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	e.Trace = tr

	row := benchObsRow{Mode: "trace"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{}, 2)
	if observatory {
		row.Mode = "observatory"
		fr := tr.StartFlightRecorder(telemetry.FlightConfig{Dir: filepath.Join(t.TempDir(), "flights")})
		defer fr.Stop()
		srv, addr, err := telemetry.ServeDebug("127.0.0.1:0", tr)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		base := "http://" + addr.String()

		// Scraper: hammer /metrics at 50ms — 20x a normal Prometheus
		// interval.
		go func() {
			defer func() { done <- struct{}{} }()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					resp, err := http.Get(base + "/metrics")
					if err != nil {
						continue
					}
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
					}
					resp.Body.Close()
					row.MetricsScrapes++
				}
			}
		}()

		// SSE client: one dashboard open at a 50ms tick.
		go func() {
			defer func() { done <- struct{}{} }()
			req, _ := http.NewRequestWithContext(ctx, "GET", base+"/debug/scamv/events?interval_ms=50", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "data: ") {
					row.SSETicks++
				}
			}
		}()
	}

	w0 := time.Now()
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	row.WallMS = float64(time.Since(w0).Microseconds()) / 1e3
	cancel()
	if observatory {
		<-done
		<-done
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	row.Programs = res.Programs
	row.Experiments = res.Experiments
	row.Counterexamples = res.Counterexamples
	row.Queries = res.Queries
	return row
}

// TestWriteBenchObs measures the observatory's overhead over plain tracing:
// the same traced campaign with and without the debug server, a 50ms
// /metrics scraper, a 50ms SSE dashboard client, and an armed flight
// recorder. Gated behind BENCH_OBS=1:
//
//	BENCH_OBS=1 go test -run TestWriteBenchObs -count=1 .
//
// (or `make bench-obs`). Interleaved fastest-of-two like the other benches;
// target ≤1.05x, hard flake ceiling 1.25x.
func TestWriteBenchObs(t *testing.T) {
	if os.Getenv("BENCH_OBS") == "" {
		t.Skip("set BENCH_OBS=1 to run the observatory-overhead benchmark")
	}
	const parallel = 4
	var off, on benchObsRow
	for i := 0; i < 2; i++ {
		o := benchObsRun(t, false, parallel)
		n := benchObsRun(t, true, parallel)
		if i == 0 || o.WallMS < off.WallMS {
			off = o
		}
		if i == 0 || n.WallMS < on.WallMS {
			on = n
		}
	}

	// Observability must observe, not perturb: identical campaign counts.
	if on.Experiments != off.Experiments || on.Counterexamples != off.Counterexamples ||
		on.Queries != off.Queries {
		t.Errorf("observatory changed campaign counts:\ntrace       %+v\nobservatory %+v", off, on)
	}
	if on.MetricsScrapes == 0 {
		t.Error("observatory run scraped /metrics zero times")
	}

	overhead := 0.0
	if off.WallMS > 0 {
		overhead = on.WallMS / off.WallMS
	}
	out := struct {
		Date        string      `json:"date"`
		Campaign    string      `json:"campaign"`
		Cores       int         `json:"gomaxprocs"`
		Trace       benchObsRow `json:"trace_only"`
		Observatory benchObsRow `json:"observatory"`
		Overhead    float64     `json:"wall_clock_overhead"`
		Target      float64     `json:"target"`
	}{
		Date:     time.Now().UTC().Format("2006-01-02"),
		Campaign: "MLine-support, TemplateA^3 (8 paths), refined MCt/SpecAll, 8 programs x 40 tests, seed 2021, parallel 4; observatory = debug server + 50ms /metrics scraper + 50ms SSE client + flight recorder",
		Cores:    runtime.GOMAXPROCS(0),
		Trace:    off, Observatory: on,
		Overhead: overhead,
		Target:   1.05,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("observatory overhead: %.3fx (trace %.1fms, observatory %.1fms, %d scrapes, %d SSE ticks) on %d core(s)",
		overhead, off.WallMS, on.WallMS, on.MetricsScrapes, on.SSETicks, out.Cores)
	if overhead > 1.25 {
		t.Errorf("observatory overhead %.2fx exceeds the 1.25x flake ceiling (target 1.05x)", overhead)
	}
}
