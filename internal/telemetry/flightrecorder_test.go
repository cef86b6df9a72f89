package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRingOverwrite(t *testing.T) {
	tr := New(nil)
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 8})
	defer fr.Stop()

	for i := 0; i < 20; i++ {
		tr.Verdict(i, 0, "ok", time.Millisecond)
	}
	snap := fr.RingSnapshot()
	if len(snap) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(snap))
	}
	// Only the newest 8 of the 20 verdicts survive.
	for _, rec := range snap {
		if rec.Prog < 12 {
			t.Errorf("ring kept stale record for prog %d", rec.Prog)
		}
	}
	st := fr.Status()
	if st.Events != 20 || st.Dropped != 12 || st.RingSize != 8 {
		t.Errorf("status = %+v, want events=20 dropped=12 ring_size=8", st)
	}
	// Timestamps must come back sorted.
	for i := 1; i < len(snap); i++ {
		if snap[i].TSus < snap[i-1].TSus {
			t.Fatal("ring snapshot not time-ordered")
		}
	}
}

func TestFlightSlowQueryTrigger(t *testing.T) {
	dir := t.TempDir()
	tr := New(nil)
	fr := tr.StartFlightRecorder(FlightConfig{
		RingSize:           64,
		Dir:                dir,
		QueryLatencyFactor: 4,
		QueryLatencyFloor:  time.Microsecond,
		MinQuerySamples:    16,
	})
	defer fr.Stop()

	// Build a tight p99 baseline, then one egregious outlier. The baseline
	// must be large enough that the p99 rank stays below the outlier's own
	// bucket (the outlier is already observed when the trigger evaluates).
	for i := 0; i < 128; i++ {
		tr.Query(QueryEvent{Status: "sat", Dur: 100 * time.Microsecond})
	}
	tr.Query(QueryEvent{Status: "sat", Dur: 200 * time.Millisecond})
	fr.Stop() // waits for the async bundle write

	st := fr.Status()
	if st.Captures != 1 {
		t.Fatalf("captures = %d, want 1 (reason %q err %q)", st.Captures, st.LastReason, st.LastError)
	}
	if !strings.HasPrefix(st.LastReason, "slow-query") {
		t.Errorf("reason = %q, want slow-query*", st.LastReason)
	}
	if st.LastError != "" {
		t.Fatalf("bundle write failed: %s", st.LastError)
	}
	if st.MaxQueryUS != 200_000 {
		t.Errorf("max query watermark = %dµs, want 200000", st.MaxQueryUS)
	}

	assertBundle(t, st.LastBundle, "slow-query")
}

// assertBundle checks the on-disk shape of an anomaly bundle: a loadable
// ring.jsonl in trace format, a counters.json with the capture reason, and a
// non-empty goroutine dump.
func assertBundle(t *testing.T, dir, wantReason string) {
	t.Helper()
	if dir == "" {
		t.Fatal("no bundle path recorded")
	}
	recs, err := LoadTrace(filepath.Join(dir, "ring.jsonl"))
	if err != nil {
		t.Fatalf("ring.jsonl does not load as a trace: %v", err)
	}
	if len(recs) == 0 {
		t.Error("ring.jsonl is empty")
	}
	mb, err := os.ReadFile(filepath.Join(dir, "counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Reason   string       `json:"reason"`
		Counters Counters     `json:"counters"`
		Flight   FlightStatus `json:"flight"`
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatalf("counters.json: %v", err)
	}
	if !strings.HasPrefix(meta.Reason, wantReason) {
		t.Errorf("bundle reason = %q, want %s*", meta.Reason, wantReason)
	}
	gb, err := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gb), "goroutine") {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}
}

func TestFlightTriggerCooldown(t *testing.T) {
	dir := t.TempDir()
	tr := New(nil)
	fr := tr.StartFlightRecorder(FlightConfig{
		RingSize: 16,
		Dir:      dir,
		Cooldown: time.Hour,
	})

	if !fr.TriggerCapture("x") {
		t.Fatal("first trigger declined")
	}
	// Wait out the single-writer gate, so only the cooldown can decline the
	// second trigger.
	waitIdle(t, fr)
	if fr.TriggerCapture("x") {
		t.Error("second trigger admitted inside the cooldown")
	}
	fr.Stop()

	st := fr.Status()
	if st.Captures != 1 {
		t.Fatalf("captures = %d, want 1 (cooldown must swallow the second trigger)", st.Captures)
	}
	if st.LastReason != "x" {
		t.Errorf("reason = %q", st.LastReason)
	}
}

func TestFlightForceCaptureWithoutDir(t *testing.T) {
	tr := New(nil)
	fr := tr.StartFlightRecorder(FlightConfig{RingSize: 4})
	defer fr.Stop()
	if _, err := fr.ForceCapture("manual"); err == nil {
		t.Fatal("ForceCapture without a bundle dir must fail")
	}
	if fr.TriggerCapture("auto") {
		t.Fatal("TriggerCapture without a bundle dir must decline")
	}
}

func TestFlightMaxCapturesCap(t *testing.T) {
	dir := t.TempDir()
	tr := New(nil)
	fr := tr.StartFlightRecorder(FlightConfig{
		RingSize:    4,
		Dir:         dir,
		Cooldown:    time.Nanosecond,
		MaxCaptures: 2,
	})
	admitted := 0
	for i := 0; i < 10; i++ {
		// Serialize: wait out the single-writer gate between attempts.
		if fr.TriggerCapture("burst") {
			admitted++
			waitIdle(t, fr)
		}
		time.Sleep(time.Millisecond) // outlive the nanosecond cooldown
	}
	fr.Stop()
	if admitted != 2 {
		t.Fatalf("admitted %d captures, want 2 (MaxCaptures)", admitted)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d bundle dirs on disk, want 2", len(entries))
	}
}

// waitIdle spins until the recorder's async bundle writer has finished.
func waitIdle(t *testing.T, fr *FlightRecorder) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fr.capturing.Load() {
		if time.Now().After(deadline) {
			t.Fatal("bundle writer stuck")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Stop()
	if fr.TriggerCapture("x") {
		t.Fatal("nil recorder admitted a capture")
	}
	if fr.RingSnapshot() != nil {
		t.Fatal("nil recorder returned a snapshot")
	}
	if st := fr.Status(); st.RingSize != 0 {
		t.Fatal("nil recorder returned a status")
	}
	if (*Tracer)(nil).StartFlightRecorder(FlightConfig{}) != nil {
		t.Fatal("nil tracer started a recorder")
	}
	if (*Tracer)(nil).FlightRecorder() != nil {
		t.Fatal("nil tracer returned a recorder")
	}
}

func TestSlugify(t *testing.T) {
	for in, want := range map[string]string{
		"slow-query 1.2s > 8x p99 10ms": "slow-query-1-2s-8x-p99-10ms",
		"stage-stall execute":           "stage-stall-execute",
		"___":                           "",
	} {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}
