package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux builds the debug endpoint served by -debug-addr on a private
// mux (no global DefaultServeMux registration, so tests can build many):
//
//	/metrics             Prometheus text-format export of the live aggregates
//	/debug/scamv         JSON snapshot of the tracer's live counters
//	/debug/pprof/        the standard pprof index, profiles, and traces
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(t))
	mux.HandleFunc("/debug/scamv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Snapshot())
	})
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
