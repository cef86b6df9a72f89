package telemetry

// Prometheus text-format exporter (exposition format 0.0.4), dependency
// free: the tracer's live aggregates rendered as counter/gauge/histogram
// families under /metrics, so a long campaign can be watched from any
// standard scraper. The fixed log2 latency histograms map directly onto
// native Prometheus histograms — the inclusive µs bucket edges become `le`
// bounds in seconds, exact because durations are truncated to µs before
// bucketing.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MetricsContentType is the Prometheus text exposition content type.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves the tracer's aggregates in Prometheus text format.
func MetricsHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		t.WriteMetrics(w)
	})
}

// WriteMetrics renders the tracer's live aggregates as Prometheus text.
// Safe on a nil tracer (renders the static zero families).
func (t *Tracer) WriteMetrics(w io.Writer) {
	c := t.Snapshot()
	m := &promWriter{w: w}

	m.family("scamv_elapsed_seconds", "gauge", "Seconds since the tracer started.")
	m.sample("scamv_elapsed_seconds", nil, secs(c.Elapsed.Microseconds()))

	m.family("scamv_programs_expected", "gauge", "Programs the running campaigns expect to process in total.")
	m.sample("scamv_programs_expected", nil, ival(c.TotalPrograms))
	m.family("scamv_programs_completed_total", "counter", "Programs fully processed (all tests executed).")
	m.sample("scamv_programs_completed_total", nil, ival(c.Programs))
	m.family("scamv_experiments_total", "counter", "Executed test cases.")
	m.sample("scamv_experiments_total", nil, ival(c.Experiments))
	m.family("scamv_counterexamples_total", "counter", "Test cases the platform distinguished but the model equates.")
	m.sample("scamv_counterexamples_total", nil, ival(c.Counterexamples))
	m.family("scamv_inconclusive_total", "counter", "Test cases with inconclusive verdicts.")
	m.sample("scamv_inconclusive_total", nil, ival(c.Inconclusive))

	m.family("scamv_solver_queries_total", "counter", "Solver queries issued during test-case generation.")
	m.sample("scamv_solver_queries_total", nil, ival(c.Queries))
	m.family("scamv_solver_conflicts_total", "counter", "CDCL conflicts summed over all queries.")
	m.sample("scamv_solver_conflicts_total", nil, ival(c.Conflicts))
	m.family("scamv_solver_decisions_total", "counter", "CDCL decisions summed over all queries.")
	m.sample("scamv_solver_decisions_total", nil, ival(c.Decisions))
	m.family("scamv_solver_propagations_total", "counter", "CDCL unit propagations summed over all queries.")
	m.sample("scamv_solver_propagations_total", nil, ival(c.Propagations))
	m.family("scamv_blast_cache_hits_total", "counter", "Bit-blast cache hits.")
	m.sample("scamv_blast_cache_hits_total", nil, ival(c.BlastHits))
	m.family("scamv_blast_cache_misses_total", "counter", "Bit-blast cache misses.")
	m.sample("scamv_blast_cache_misses_total", nil, ival(c.BlastMisses))
	m.family("scamv_ackermann_reads_total", "counter", "Ackermann memory-read expansions.")
	m.sample("scamv_ackermann_reads_total", nil, ival(c.AckReads))

	m.family("scamv_retries_total", "counter", "Platform-execution retries.")
	m.sample("scamv_retries_total", nil, ival(c.Retries))
	m.family("scamv_timeouts_total", "counter", "Platform attempts that hit their deadline.")
	m.sample("scamv_timeouts_total", nil, ival(c.Timeouts))
	m.family("scamv_skips_total", "counter", "Tests abandoned under FailPolicy Degrade.")
	m.sample("scamv_skips_total", nil, ival(c.Skips))
	m.family("scamv_quarantines_total", "counter", "Programs quarantined after consecutive failures.")
	m.sample("scamv_quarantines_total", nil, ival(c.Quarantines))
	m.family("scamv_breaker_trips_total", "counter", "Circuit-breaker transitions into the open state.")
	m.sample("scamv_breaker_trips_total", nil, ival(c.BreakerTrips))

	m.family("scamv_resumed_programs_total", "counter", "Programs restored from campaign journals instead of re-run.")
	m.sample("scamv_resumed_programs_total", nil, ival(c.ResumedPrograms))
	m.family("scamv_checkpoints_total", "counter", "Durable campaign checkpoints written.")
	m.sample("scamv_checkpoints_total", nil, ival(c.Checkpoints))

	if len(c.Platforms) > 0 {
		m.family("scamv_platform_experiments_total", "counter", "Executed tests per matrix platform.")
		for _, p := range c.Platforms {
			m.sample("scamv_platform_experiments_total",
				[][2]string{{"platform", p.Name}}, ival(p.Experiments))
		}
		m.family("scamv_platform_counterexamples_total", "counter", "Counterexamples per matrix platform.")
		for _, p := range c.Platforms {
			m.sample("scamv_platform_counterexamples_total",
				[][2]string{{"platform", p.Name}}, ival(p.Counterexamples))
		}
		m.family("scamv_platform_inconclusive_total", "counter", "Inconclusive verdicts per matrix platform.")
		for _, p := range c.Platforms {
			m.sample("scamv_platform_inconclusive_total",
				[][2]string{{"platform", p.Name}}, ival(p.Inconclusive))
		}
	}

	// Stage-level work accounting. Busy comes from the span histograms, so
	// it exists whenever spans were traced; wait/stall/items/workers come
	// from the staged engine's live pipeline source when one is registered.
	if len(c.Stages) > 0 {
		m.family("scamv_stage_busy_seconds_total", "counter", "Work time inside each pipeline stage, summed over workers.")
		for _, s := range c.Stages {
			m.sample("scamv_stage_busy_seconds_total",
				[][2]string{{"stage", s.Name}}, secs(s.Busy.Microseconds()))
		}
	}
	if len(c.Pipeline) > 0 {
		m.family("scamv_stage_wait_seconds_total", "counter", "Input starvation per stage: time blocked receiving upstream items.")
		for _, s := range c.Pipeline {
			m.sample("scamv_stage_wait_seconds_total",
				[][2]string{{"stage", s.Name}}, secs(s.Wait.Microseconds()))
		}
		m.family("scamv_stage_stall_seconds_total", "counter", "Output backpressure per stage: time blocked sending downstream.")
		for _, s := range c.Pipeline {
			m.sample("scamv_stage_stall_seconds_total",
				[][2]string{{"stage", s.Name}}, secs(s.Stall.Microseconds()))
		}
		m.family("scamv_stage_items_in_total", "counter", "Items received per stage.")
		for _, s := range c.Pipeline {
			m.sample("scamv_stage_items_in_total",
				[][2]string{{"stage", s.Name}}, ival(s.In))
		}
		m.family("scamv_stage_items_out_total", "counter", "Items emitted per stage.")
		for _, s := range c.Pipeline {
			m.sample("scamv_stage_items_out_total",
				[][2]string{{"stage", s.Name}}, ival(s.Out))
		}
		m.family("scamv_stage_workers", "gauge", "Worker-pool size per stage.")
		for _, s := range c.Pipeline {
			m.sample("scamv_stage_workers",
				[][2]string{{"stage", s.Name}}, ival(int64(s.Workers)))
		}
	}

	// Native histograms from the fixed log2 buckets.
	if t != nil {
		m.family("scamv_query_duration_seconds", "histogram", "Solver query latency.")
		m.histogram("scamv_query_duration_seconds", nil, &t.queryHist)

		t.stagesMu.RLock()
		order := append([]*stageAgg(nil), t.order...)
		t.stagesMu.RUnlock()
		if len(order) > 0 {
			m.family("scamv_stage_duration_seconds", "histogram", "Per-program span latency by pipeline stage.")
			for _, a := range order {
				m.histogram("scamv_stage_duration_seconds",
					[][2]string{{"stage", a.name}}, &a.hist)
			}
		}
	}

	// Flight-recorder watermarks, when one is attached.
	if fr := t.FlightRecorder(); fr != nil {
		st := fr.Status()
		m.family("scamv_flight_events_total", "counter", "Trace records seen by the flight-recorder ring.")
		m.sample("scamv_flight_events_total", nil, ival(st.Events))
		m.family("scamv_flight_dropped_total", "counter", "Ring records overwritten by newer ones.")
		m.sample("scamv_flight_dropped_total", nil, ival(st.Dropped))
		m.family("scamv_flight_captures_total", "counter", "Anomaly bundles captured.")
		m.sample("scamv_flight_captures_total", nil, ival(st.Captures))
		m.family("scamv_flight_max_query_seconds", "gauge", "Slowest solver query observed (watermark).")
		m.sample("scamv_flight_max_query_seconds", nil, secs(st.MaxQueryUS))
		m.family("scamv_flight_max_stall_seconds", "gauge", "Largest cumulative stage stall observed (watermark).")
		m.sample("scamv_flight_max_stall_seconds", nil, secs(st.MaxStallUS))
	}
}

// promWriter emits exposition-format lines.
type promWriter struct {
	w io.Writer
}

func (m *promWriter) family(name, typ, help string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *promWriter) sample(name string, labels [][2]string, value string) {
	io.WriteString(m.w, name)
	writeLabels(m.w, labels)
	fmt.Fprintf(m.w, " %s\n", value)
}

// histogram renders one Histogram as a native Prometheus histogram: the
// cumulative bucket series with exact inclusive upper edges, then sum and
// count. Extra labels (e.g. stage) ride on every series of the family.
func (m *promWriter) histogram(name string, labels [][2]string, h *Histogram) {
	buckets := h.Buckets()
	var cum int64
	for i, n := range buckets {
		upper := BucketUpperUS(i)
		if upper < 0 {
			break // the top bucket is the +Inf series below
		}
		cum += n
		le := strconv.FormatFloat(float64(upper)/1e6, 'g', -1, 64)
		m.sample(name+"_bucket", append(append([][2]string(nil), labels...), [2]string{"le", le}), ival(cum))
	}
	total := h.Count()
	m.sample(name+"_bucket", append(append([][2]string(nil), labels...), [2]string{"le", "+Inf"}), ival(total))
	m.sample(name+"_sum", labels, secs(h.Sum().Microseconds()))
	m.sample(name+"_count", labels, ival(total))
}

func writeLabels(w io.Writer, labels [][2]string) {
	if len(labels) == 0 {
		return
	}
	io.WriteString(w, "{")
	for i, kv := range labels {
		if i > 0 {
			io.WriteString(w, ",")
		}
		// %q escapes backslashes, quotes, and newlines — exactly the
		// exposition format's label-value escaping.
		fmt.Fprintf(w, `%s=%q`, kv[0], kv[1])
	}
	io.WriteString(w, "}")
}

func ival(v int64) string { return strconv.FormatInt(v, 10) }

// secs renders microseconds as seconds with full precision.
func secs(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}
