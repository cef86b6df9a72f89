package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// liveDoc is the /debug/scamv document: the counter snapshot with
// the flight recorder's ring/watermark status beside it, omitted when no
// recorder is attached.
type liveDoc struct {
	Counters
	Flight *FlightStatus `json:"flight,omitempty"`
}

func snapshotDoc(t *Tracer) liveDoc {
	doc := liveDoc{Counters: t.Snapshot()}
	if fr := t.FlightRecorder(); fr != nil {
		st := fr.Status()
		doc.Flight = &st
	}
	return doc
}

// DebugMux builds the debug endpoint served by -debug-addr on a private
// mux (no global DefaultServeMux registration, so tests can build many):
//
//	/metrics             Prometheus text-format export of the live aggregates
//	/debug/scamv         JSON snapshot of the tracer's live counters
//	/debug/scamv/flight  flight-recorder status (GET) / forced capture (POST)
//	/debug/pprof/        the standard pprof index, profiles, and traces
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(t))
	mux.HandleFunc("/debug/scamv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshotDoc(t))
	})
	mux.HandleFunc("/debug/scamv/flight", flightHandler(t))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// flightHandler reports the flight recorder's status (GET) and forces a
// capture (POST, optional ?reason=), returning the bundle path — the manual
// seam the obs-smoke exercises and an operator's "grab me evidence now".
func flightHandler(t *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fr := t.FlightRecorder()
		if fr == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if r.Method == http.MethodPost {
			reason := r.FormValue("reason")
			if reason == "" {
				reason = "manual"
			}
			dir, err := fr.ForceCapture(reason)
			out := struct {
				Bundle string `json:"bundle,omitempty"`
				Error  string `json:"error,omitempty"`
			}{Bundle: dir}
			if err != nil {
				out.Error = err.Error()
				w.WriteHeader(http.StatusInternalServerError)
			}
			_ = enc.Encode(out)
			return
		}
		_ = enc.Encode(fr.Status())
	}
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
