package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// countersJSON is the wire shape of /debug/scamv: the Counters snapshot
// with durations flattened to microseconds.
type countersJSON struct {
	ElapsedUS int64 `json:"elapsed_us"`

	TotalPrograms   int64 `json:"total_programs"`
	Programs        int64 `json:"programs"`
	Experiments     int64 `json:"experiments"`
	Counterexamples int64 `json:"counterexamples"`
	Inconclusive    int64 `json:"inconclusive"`

	Queries      int64 `json:"queries"`
	QueryTimeUS  int64 `json:"query_time_us"`
	QueryP50US   int64 `json:"query_p50_us"`
	QueryP95US   int64 `json:"query_p95_us"`
	QueryP99US   int64 `json:"query_p99_us"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	BlastHits    int64 `json:"blast_hits"`
	BlastMisses  int64 `json:"blast_misses"`
	AckReads     int64 `json:"ack_reads"`

	Retries      int64 `json:"retries"`
	Timeouts     int64 `json:"timeouts"`
	Skips        int64 `json:"skips"`
	Quarantines  int64 `json:"quarantines"`
	BreakerTrips int64 `json:"breaker_trips"`

	ResumedPrograms int64 `json:"resumed_programs,omitempty"`
	Checkpoints     int64 `json:"checkpoints,omitempty"`

	Stages []stageJSON `json:"stages,omitempty"`

	// Platforms carries per-platform verdicts of matrix campaigns; Pipeline
	// the staged engine's live busy/wait/stall; Flight the flight recorder's
	// ring/watermark status — all omitted when the feature is idle, so
	// pre-observatory consumers see an unchanged document.
	Platforms []platformJSON `json:"platforms,omitempty"`
	Pipeline  []pipelineJSON `json:"pipeline,omitempty"`
	Flight    *FlightStatus  `json:"flight,omitempty"`
}

type stageJSON struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	BusyUS int64  `json:"busy_us"`
	P50US  int64  `json:"p50_us"`
	P95US  int64  `json:"p95_us"`
	P99US  int64  `json:"p99_us"`
}

type platformJSON struct {
	Name            string `json:"name"`
	Experiments     int64  `json:"experiments"`
	Counterexamples int64  `json:"counterexamples"`
	Inconclusive    int64  `json:"inconclusive"`
}

type pipelineJSON struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	In      int64  `json:"in"`
	Out     int64  `json:"out"`
	BusyUS  int64  `json:"busy_us"`
	WaitUS  int64  `json:"wait_us"`
	StallUS int64  `json:"stall_us"`
}

func countersWire(c Counters) countersJSON {
	out := countersJSON{
		ElapsedUS:       c.Elapsed.Microseconds(),
		TotalPrograms:   c.TotalPrograms,
		Programs:        c.Programs,
		Experiments:     c.Experiments,
		Counterexamples: c.Counterexamples,
		Inconclusive:    c.Inconclusive,
		Queries:         c.Queries,
		QueryTimeUS:     c.QueryTime.Microseconds(),
		QueryP50US:      c.QueryP50.Microseconds(),
		QueryP95US:      c.QueryP95.Microseconds(),
		QueryP99US:      c.QueryP99.Microseconds(),
		Conflicts:       c.Conflicts,
		Decisions:       c.Decisions,
		Propagations:    c.Propagations,
		BlastHits:       c.BlastHits,
		BlastMisses:     c.BlastMisses,
		AckReads:        c.AckReads,
		Retries:         c.Retries,
		Timeouts:        c.Timeouts,
		Skips:           c.Skips,
		Quarantines:     c.Quarantines,
		BreakerTrips:    c.BreakerTrips,
		ResumedPrograms: c.ResumedPrograms,
		Checkpoints:     c.Checkpoints,
	}
	for _, s := range c.Stages {
		out.Stages = append(out.Stages, stageJSON{
			Name:   s.Name,
			Count:  s.Count,
			BusyUS: s.Busy.Microseconds(),
			P50US:  s.P50.Microseconds(),
			P95US:  s.P95.Microseconds(),
			P99US:  s.P99.Microseconds(),
		})
	}
	for _, p := range c.Platforms {
		out.Platforms = append(out.Platforms, platformJSON{
			Name:            p.Name,
			Experiments:     p.Experiments,
			Counterexamples: p.Counterexamples,
			Inconclusive:    p.Inconclusive,
		})
	}
	for _, p := range c.Pipeline {
		out.Pipeline = append(out.Pipeline, pipelineJSON{
			Name:    p.Name,
			Workers: p.Workers,
			In:      p.In,
			Out:     p.Out,
			BusyUS:  p.Busy.Microseconds(),
			WaitUS:  p.Wait.Microseconds(),
			StallUS: p.Stall.Microseconds(),
		})
	}
	return out
}

// wireSnapshot builds the full wire document for /debug/scamv and the SSE
// stream: the counter snapshot plus the flight recorder's status.
func wireSnapshot(t *Tracer) countersJSON {
	out := countersWire(t.Snapshot())
	if fr := t.FlightRecorder(); fr != nil {
		st := fr.Status()
		out.Flight = &st
	}
	return out
}

// DebugMux builds the debug endpoint served by -debug-addr on a private
// mux (no global DefaultServeMux registration, so tests can build many):
//
//	/metrics             Prometheus text-format export of the live aggregates
//	/debug/scamv         JSON snapshot of the tracer's live counters
//	/debug/scamv/live    self-contained live HTML dashboard (SSE-fed)
//	/debug/scamv/events  server-sent-events stream of counter snapshots
//	/debug/scamv/flight  flight-recorder status (GET) / forced capture (POST)
//	/debug/vars          the process's expvar map (memstats, cmdline)
//	/debug/pprof/        the standard pprof index, profiles, and traces
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(t))
	mux.HandleFunc("/debug/scamv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(wireSnapshot(t))
	})
	mux.HandleFunc("/debug/scamv/live", liveHandler())
	mux.HandleFunc("/debug/scamv/events", sseHandler(t))
	mux.HandleFunc("/debug/scamv/flight", flightHandler(t))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug endpoint on addr (e.g. "localhost:6060";
// port 0 picks a free port, reported by the returned address). The caller
// closes the returned server when the campaign is over. Profiling a live
// campaign:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile
//	curl http://localhost:6060/debug/scamv
func ServeDebug(addr string, t *Tracer) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(t), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
