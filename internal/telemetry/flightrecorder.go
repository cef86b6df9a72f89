package telemetry

// The flight recorder is the "deep evidence on demand" half of the
// observatory: cheap aggregates run all the time (/metrics, the progress
// line), and when an anomaly fires — a solver query far past the campaign's
// own p99 — the recorder snapshots a bounded lock-free ring of the most
// recent trace records, the live counters, a goroutine dump, and optionally a
// short CPU profile into a timestamped bundle directory. The design follows
// the targeted-diagnosis philosophy of per-site mitigation work: pay for
// detail exactly when something is wrong, nothing the rest of the time.
//
// The ring is a fixed slice of atomic record pointers behind one atomic
// cursor: writers claim a slot with a single fetch-add and store a pointer,
// so the hot path costs two atomic operations and no locks. Two writers
// racing a full lap apart can land on the same slot; last-write-wins is fine
// for a diagnostic buffer. Snapshot readers gather whatever pointers are
// present and sort by timestamp.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightConfig tunes the flight recorder. The zero value of every field
// selects a sensible default; a zero Dir disables bundle writing (the ring
// and watermarks still run and feed /metrics and /debug/scamv).
type FlightConfig struct {
	// RingSize is the number of trace records retained (default 2048).
	RingSize int
	// Dir is the directory anomaly bundles are written under (one
	// timestamped subdirectory per capture). Empty disables captures.
	Dir string

	// QueryLatencyFactor k arms the slow-query trigger: a query slower than
	// k × the campaign's own live p99 captures a bundle. Default 8;
	// negative disables the trigger.
	QueryLatencyFactor int64
	// QueryLatencyFloor suppresses the slow-query trigger below this
	// absolute latency (default 1ms), so microsecond-noise campaigns
	// don't fire on 8 × 2µs.
	QueryLatencyFloor time.Duration
	// MinQuerySamples is the number of observed queries required before the
	// slow-query trigger arms (default 128) — p99 of ten queries is noise.
	MinQuerySamples int64

	// Cooldown is the minimum spacing between automatic captures (default
	// 10s); MaxCaptures caps them per recorder (default 16). ForceCapture
	// bypasses both.
	Cooldown    time.Duration
	MaxCaptures int

	// CPUProfile, when positive, includes a CPU profile slice of this
	// duration (cpu.pprof) in each bundle. Capture is asynchronous, so the
	// campaign does not block; if another profile is already running the
	// slice is skipped.
	CPUProfile time.Duration
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.RingSize <= 0 {
		c.RingSize = 2048
	}
	if c.QueryLatencyFactor == 0 {
		c.QueryLatencyFactor = 8
	}
	if c.QueryLatencyFloor <= 0 {
		c.QueryLatencyFloor = time.Millisecond
	}
	if c.MinQuerySamples <= 0 {
		c.MinQuerySamples = 128
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 16
	}
	return c
}

// FlightRecorder keeps the bounded ring of recent trace records, watermark
// gauges, and the anomaly-capture machinery. Attach one to a tracer with
// Tracer.StartFlightRecorder; all methods are safe for concurrent use and
// safe on a nil receiver.
type FlightRecorder struct {
	cfg FlightConfig
	tr  *Tracer

	slots  []atomic.Pointer[Record]
	cursor atomic.Int64

	// Watermark gauge: the slowest query seen so far.
	maxQueryUS atomic.Int64

	captures  atomic.Int64 // capture attempts admitted
	lastCapUS atomic.Int64 // wall clock (unix µs) of the last admitted capture
	capturing atomic.Bool  // one bundle writer at a time

	lastMu     sync.Mutex
	lastReason string
	lastBundle string
	lastErr    error

	wg sync.WaitGroup // in-flight bundle writes
}

// StartFlightRecorder attaches a flight recorder to the tracer. A recorder
// attached earlier is replaced (it should be stopped first). Returns nil on a
// nil tracer.
func (t *Tracer) StartFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if t == nil {
		return nil
	}
	fr := &FlightRecorder{cfg: cfg.withDefaults(), tr: t}
	fr.slots = make([]atomic.Pointer[Record], fr.cfg.RingSize)
	t.fr.Store(fr)
	return fr
}

// FlightRecorder returns the recorder attached to the tracer, if any.
func (t *Tracer) FlightRecorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.fr.Load()
}

// Stop detaches the recorder from its tracer and waits for any in-flight
// bundle write to finish. Idempotent.
func (fr *FlightRecorder) Stop() {
	if fr == nil {
		return
	}
	fr.tr.fr.CompareAndSwap(fr, nil)
	fr.wg.Wait()
}

// add appends one record to the ring (called by Tracer.record for every
// trace record). Lock-free: one fetch-add, one pointer store.
func (fr *FlightRecorder) add(rec *Record) {
	i := fr.cursor.Add(1) - 1
	fr.slots[i%int64(len(fr.slots))].Store(rec)
}

// noteQuery updates the query watermark and evaluates the slow-query
// trigger against the campaign's own live p99.
func (fr *FlightRecorder) noteQuery(d time.Duration, hist *Histogram) {
	watermark(&fr.maxQueryUS, d.Microseconds())
	if fr.cfg.QueryLatencyFactor <= 0 || d < fr.cfg.QueryLatencyFloor {
		return
	}
	if hist.Count() < fr.cfg.MinQuerySamples {
		return
	}
	_, _, p99 := hist.Quantiles()
	if p99 > 0 && d > time.Duration(fr.cfg.QueryLatencyFactor)*p99 {
		fr.TriggerCapture(fmt.Sprintf("slow-query %s > %dx p99 %s", d, fr.cfg.QueryLatencyFactor, p99))
	}
}

// watermark raises an atomic high-watermark gauge to at least v.
func watermark(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TriggerCapture requests an asynchronous anomaly capture. It is the entry
// point of the automatic triggers: admission is guarded by the cooldown, the
// MaxCaptures cap, and a single-writer gate, so a burst of anomalies costs
// one bundle. Reports whether a capture was admitted. The bundle is written
// on a background goroutine — the instrumented hot path never blocks on I/O.
func (fr *FlightRecorder) TriggerCapture(reason string) bool {
	if fr == nil || fr.cfg.Dir == "" {
		return false
	}
	now := time.Now().UnixMicro()
	if last := fr.lastCapUS.Load(); last != 0 && now-last < fr.cfg.Cooldown.Microseconds() {
		return false
	}
	if fr.captures.Load() >= int64(fr.cfg.MaxCaptures) {
		return false
	}
	if !fr.capturing.CompareAndSwap(false, true) {
		return false
	}
	fr.lastCapUS.Store(now)
	fr.captures.Add(1)
	fr.wg.Add(1)
	go func() {
		defer fr.wg.Done()
		defer fr.capturing.Store(false)
		dir, err := fr.writeBundle(reason, time.Now())
		fr.lastMu.Lock()
		fr.lastReason, fr.lastBundle, fr.lastErr = reason, dir, err
		fr.lastMu.Unlock()
	}()
	return true
}

// ForceCapture writes a bundle synchronously, bypassing cooldown and cap —
// the manual path behind the debug endpoint's POST and the smoke tests.
func (fr *FlightRecorder) ForceCapture(reason string) (string, error) {
	if fr == nil {
		return "", fmt.Errorf("telemetry: no flight recorder attached")
	}
	if fr.cfg.Dir == "" {
		return "", fmt.Errorf("telemetry: flight recorder has no bundle directory")
	}
	fr.captures.Add(1)
	fr.lastCapUS.Store(time.Now().UnixMicro())
	dir, err := fr.writeBundle(reason, time.Now())
	fr.lastMu.Lock()
	fr.lastReason, fr.lastBundle, fr.lastErr = reason, dir, err
	fr.lastMu.Unlock()
	return dir, err
}

// RingSnapshot returns the ring's current records ordered by timestamp.
func (fr *FlightRecorder) RingSnapshot() []Record {
	if fr == nil {
		return nil
	}
	out := make([]Record, 0, len(fr.slots))
	for i := range fr.slots {
		if rec := fr.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TSus < out[j].TSus })
	return out
}

// FlightStatus is the recorder's live status, rendered by /debug/scamv and
// the flight endpoint.
type FlightStatus struct {
	RingSize   int    `json:"ring_size"`
	Events     int64  `json:"events"`
	Dropped    int64  `json:"dropped"` // events overwritten by newer ones
	Captures   int64  `json:"captures"`
	LastReason string `json:"last_reason,omitempty"`
	LastBundle string `json:"last_bundle,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	// Watermark gauge: slowest query so far.
	MaxQueryUS int64 `json:"max_query_us"`
}

// Status reports the recorder's counters and watermarks.
func (fr *FlightRecorder) Status() FlightStatus {
	if fr == nil {
		return FlightStatus{}
	}
	seen := fr.cursor.Load()
	dropped := seen - int64(len(fr.slots))
	if dropped < 0 {
		dropped = 0
	}
	st := FlightStatus{
		RingSize:   len(fr.slots),
		Events:     seen,
		Dropped:    dropped,
		Captures:   fr.captures.Load(),
		MaxQueryUS: fr.maxQueryUS.Load(),
	}
	fr.lastMu.Lock()
	st.LastReason, st.LastBundle = fr.lastReason, fr.lastBundle
	if fr.lastErr != nil {
		st.LastError = fr.lastErr.Error()
	}
	fr.lastMu.Unlock()
	return st
}

// writeBundle snapshots the ring, counters, and goroutines (plus an optional
// CPU slice) into a fresh timestamped directory and returns its path.
func (fr *FlightRecorder) writeBundle(reason string, now time.Time) (string, error) {
	dir := filepath.Join(fr.cfg.Dir,
		fmt.Sprintf("anomaly-%s-%s", now.UTC().Format("20060102T150405.000000Z"), slugify(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight bundle: %w", err)
	}

	// ring.jsonl: the recent-history window, in trace format so every
	// existing trace tool (-report, DiffTraces, ReadTrace) loads it.
	ring := fr.RingSnapshot()
	var rb strings.Builder
	for i := range ring {
		b, err := json.Marshal(&ring[i])
		if err != nil {
			return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
		}
		rb.Write(b)
		rb.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "ring.jsonl"), []byte(rb.String()), 0o644); err != nil {
		return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
	}

	// counters.json: the anomaly context — reason, wall clock, the full
	// live counter snapshot, and the recorder's own status.
	meta := struct {
		Reason     string       `json:"reason"`
		CapturedAt string       `json:"captured_at"`
		Counters   Counters     `json:"counters"`
		Flight     FlightStatus `json:"flight"`
	}{
		Reason:     reason,
		CapturedAt: now.UTC().Format(time.RFC3339Nano),
		Counters:   fr.tr.Snapshot(),
		Flight:     fr.Status(),
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "counters.json"), append(mb, '\n'), 0o644); err != nil {
		return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
	}

	// goroutines.txt: full stacks — where every worker was when the
	// anomaly fired.
	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
	}
	perr := pprof.Lookup("goroutine").WriteTo(gf, 2)
	if cerr := gf.Close(); perr == nil {
		perr = cerr
	}
	if perr != nil {
		return dir, fmt.Errorf("telemetry: flight bundle: %w", perr)
	}

	// cpu.pprof: optional profile slice. Best effort — if another profile
	// is running (e.g. a user-driven /debug/pprof/profile), skip silently.
	if fr.cfg.CPUProfile > 0 {
		cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			os.Remove(cf.Name())
		} else {
			time.Sleep(fr.cfg.CPUProfile)
			pprof.StopCPUProfile()
			if err := cf.Close(); err != nil {
				return dir, fmt.Errorf("telemetry: flight bundle: %w", err)
			}
		}
	}
	return dir, nil
}

// slugify reduces an anomaly reason to a short directory-name-safe tag.
func slugify(s string) string {
	var sb strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
			dash = false
		default:
			if !dash && sb.Len() > 0 {
				sb.WriteByte('-')
				dash = true
			}
		}
		if sb.Len() >= 48 {
			break
		}
	}
	return strings.TrimSuffix(sb.String(), "-")
}
