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
	"strings"
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

// family is one /metrics family read from rows of type T: the Counters
// snapshot, a platform or a stage. Values of families named *_seconds* are
// held in microseconds and rendered in seconds.
type family[T any] struct {
	name, typ, help string
	get             func(*T) int64
}

// scalarFamilies are the unlabelled families, in exposition order.
var scalarFamilies = []family[Counters]{
	{"scamv_elapsed_seconds", "gauge", "Seconds since the tracer started.", func(c *Counters) int64 { return c.ElapsedUS }},
	{"scamv_programs_expected", "gauge", "Programs the running campaigns expect to process in total.", func(c *Counters) int64 { return c.TotalPrograms }},
	{"scamv_programs_completed_total", "counter", "Programs fully processed (all tests executed).", func(c *Counters) int64 { return c.Programs }},
	{"scamv_experiments_total", "counter", "Executed test cases.", func(c *Counters) int64 { return c.Experiments }},
	{"scamv_counterexamples_total", "counter", "Test cases the platform distinguished but the model equates.", func(c *Counters) int64 { return c.Counterexamples }},
	{"scamv_inconclusive_total", "counter", "Test cases with inconclusive verdicts.", func(c *Counters) int64 { return c.Inconclusive }},
	{"scamv_solver_queries_total", "counter", "Solver queries issued during test-case generation.", func(c *Counters) int64 { return c.Queries }},
	{"scamv_solver_conflicts_total", "counter", "CDCL conflicts summed over all queries.", func(c *Counters) int64 { return c.Conflicts }},
	{"scamv_solver_decisions_total", "counter", "CDCL decisions summed over all queries.", func(c *Counters) int64 { return c.Decisions }},
	{"scamv_solver_propagations_total", "counter", "CDCL unit propagations summed over all queries.", func(c *Counters) int64 { return c.Propagations }},
	{"scamv_blast_cache_hits_total", "counter", "Bit-blast cache hits.", func(c *Counters) int64 { return c.BlastHits }},
	{"scamv_blast_cache_misses_total", "counter", "Bit-blast cache misses.", func(c *Counters) int64 { return c.BlastMisses }},
	{"scamv_ackermann_reads_total", "counter", "Ackermann memory-read expansions.", func(c *Counters) int64 { return c.AckReads }},
	{"scamv_retries_total", "counter", "Platform-execution retries.", func(c *Counters) int64 { return c.Retries }},
	{"scamv_timeouts_total", "counter", "Platform attempts that hit their deadline.", func(c *Counters) int64 { return c.Timeouts }},
	{"scamv_skips_total", "counter", "Tests abandoned under FailPolicy Degrade.", func(c *Counters) int64 { return c.Skips }},
	{"scamv_quarantines_total", "counter", "Programs quarantined after consecutive failures.", func(c *Counters) int64 { return c.Quarantines }},
	{"scamv_resumed_programs_total", "counter", "Programs restored from campaign journals instead of re-run.", func(c *Counters) int64 { return c.ResumedPrograms }},
}

var platformFamilies = []family[PlatformCount]{
	{"scamv_platform_experiments_total", "counter", "Executed tests per matrix platform.", func(p *PlatformCount) int64 { return p.Experiments }},
	{"scamv_platform_counterexamples_total", "counter", "Counterexamples per matrix platform.", func(p *PlatformCount) int64 { return p.Counterexamples }},
	{"scamv_platform_inconclusive_total", "counter", "Inconclusive verdicts per matrix platform.", func(p *PlatformCount) int64 { return p.Inconclusive }},
}

// Stage-level work accounting. Busy comes from the span histograms, so it
// exists whenever spans were traced.
var stageFamilies = []family[StageCount]{
	{"scamv_stage_busy_seconds_total", "counter", "Work time inside each pipeline stage, summed over workers.", func(s *StageCount) int64 { return s.BusyUS }},
}

// writeFamilies renders each family with one sample per row, labelled
// label=key(row) when a label is given. No rows, no families.
func writeFamilies[T any](m *promWriter, fams []family[T], rows []T, label string, key func(*T) string) {
	if len(rows) == 0 {
		return
	}
	for _, f := range fams {
		m.family(f.name, f.typ, f.help)
		for i := range rows {
			var labels [][2]string
			if label != "" {
				labels = [][2]string{{label, key(&rows[i])}}
			}
			v := f.get(&rows[i])
			if strings.Contains(f.name, "_seconds") {
				m.sample(f.name, labels, secs(v))
			} else {
				m.sample(f.name, labels, ival(v))
			}
		}
	}
}

// WriteMetrics renders the tracer's live aggregates as Prometheus text.
// Safe on a nil tracer (renders the static zero families).
func (t *Tracer) WriteMetrics(w io.Writer) {
	c := t.Snapshot()
	m := &promWriter{w: w}
	writeFamilies(m, scalarFamilies, []Counters{c}, "", nil)
	writeFamilies(m, platformFamilies, c.Platforms, "platform", func(p *PlatformCount) string { return p.Name })
	writeFamilies(m, stageFamilies, c.Stages, "stage", func(s *StageCount) string { return s.Name })

	// Native histograms from the fixed log2 buckets.
	if t != nil {
		m.family("scamv_query_duration_seconds", "histogram", "Solver query latency.")
		m.histogram("scamv_query_duration_seconds", nil, &t.queryHist)
		if order := t.stageOrder(); len(order) > 0 {
			m.family("scamv_stage_duration_seconds", "histogram", "Per-program span latency by pipeline stage.")
			for _, a := range order {
				m.histogram("scamv_stage_duration_seconds",
					[][2]string{{"stage", a.name}}, &a.hist)
			}
		}
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
