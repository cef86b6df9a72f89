// Package telemetry is the campaign observability spine: a low-overhead,
// concurrency-safe tracer threaded through the whole Scam-V pipeline.
//
// Three consumers hang off one Tracer:
//
//   - a JSONL trace writer (scamv -trace run.jsonl) recording one line per
//     pipeline span, per solver query (with SAT counter deltas, blast-cache
//     hits/misses, and Ackermann expansion counts), and per experiment
//     verdict — reloadable by logdb.Load with CheckRecord for offline
//     latency analysis;
//   - live aggregates (Snapshot, one Counters struct) feeding the periodic
//     progress line on stderr, /metrics, and the /debug/scamv JSON
//     document;
//   - per-stage and per-query latency histograms (fixed log2 buckets, no
//     floats in the hot path).
//
// Every event method builds its Record and hands it to one aggregator,
// observe, before writing it; Replay runs a loaded trace through the same
// aggregator, so the offline -report and the live view cannot disagree.
//
// A nil *Tracer is fully functional and free: every method starts with a
// single pointer check, so the disabled pipeline pays one compare-and-branch
// per instrumentation site and nothing else. The trace is written and read
// by internal/logdb, the one JSON-lines layer it shares with the experiment
// log; telemetry adds only CheckRecord, its per-record check.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scamv/internal/logdb"
)

// SchemaVersion is the trace schema version stamped on every record.
// Version 1: kinds "campaign", "span", "query", "verdict" with the fields
// documented on Record. Version 2 adds the resilience kinds "retry",
// "timeout", "skip", "quarantine" (new fields Reason, Attempt), and
// "breaker" (fields "from", "to") of a since-deleted circuit breaker, no
// longer written and ignored by readers. Version 3 added the "shape" kind
// (field "hit") of a since-deleted campaign shape cache, and the per-query
// fields "winner" and "shared_clauses" of a since-retired portfolio
// backend; none of them is written any more and readers ignore them. v1
// and v2 traces remain loadable. Version 4
// adds the "platform" kind: one record per (platform, test) of a matrix
// campaign, carrying the platform name in Name alongside the verdict fields.
// Version 5 adds the crash-safety kinds "resume" (a campaign restored a
// journaled prefix: Name, Programs = restored count) and "checkpoint" (a
// since-deleted checkpoint snapshot was written; no longer written, and
// readers ignore it like v3 "shape"). Readers reject records from a newer
// schema.
const SchemaVersion = 5

// Record is one JSONL trace line. One flat struct serves all kinds; fields
// not meaningful for a kind are zero and omitted from the encoding (their
// decoded zero values are identical, so the round trip is lossless).
//
// Kinds:
//
//	campaign  a campaign started: Name, Programs (expected count)
//	span      one pipeline stage finished for one program: Stage, Prog, DurUS
//	query     one solver query: Prog, PathA/PathB/Class/Slot, Status, DurUS,
//	          plus the solver-effort deltas of this query (Conflicts,
//	          Decisions, Propagations, BlastHits, BlastMisses, AckReads)
//	verdict   one executed test case: Prog, Test, Verdict, DurUS
//	retry     one platform retry: Prog, Test, Attempt (failing attempt,
//	          0-based), Reason
//	timeout   one platform attempt hit its deadline: Prog, Test, Attempt
//	skip      one test abandoned under FailPolicy Degrade: Prog, Test, Reason
//	quarantine one program quarantined: Prog, Reason
//	platform  one platform's verdict for one test of a matrix campaign:
//	          Name (platform), Prog, Test, Verdict, DurUS
//	resume    a campaign restored a journaled prefix on startup: Name
//	          (campaign), Programs (restored program count)
type Record struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// TSus is microseconds since the tracer started (monotonic).
	TSus int64 `json:"ts_us"`

	Name     string `json:"name,omitempty"`
	Programs int    `json:"programs,omitempty"`

	Prog  int    `json:"prog,omitempty"`
	Stage string `json:"stage,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`

	Test    int    `json:"test,omitempty"`
	Verdict string `json:"verdict,omitempty"`

	PathA  int    `json:"path_a,omitempty"`
	PathB  int    `json:"path_b,omitempty"`
	Class  int    `json:"class,omitempty"`
	Slot   int    `json:"slot,omitempty"`
	Status string `json:"status,omitempty"`

	Conflicts    int64 `json:"conflicts,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	BlastHits    int64 `json:"blast_hits,omitempty"`
	BlastMisses  int64 `json:"blast_misses,omitempty"`
	AckReads     int64 `json:"ack_reads,omitempty"`

	// Resilience fields (schema v2).
	Reason  string `json:"reason,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// QueryEvent is one solver query as reported by the test-case generator.
// The counter fields are deltas over this query, not cumulative totals.
type QueryEvent struct {
	Prog   int
	PathA  int
	PathB  int
	Class  int
	Slot   int
	Status string
	Dur    time.Duration

	Conflicts    int64
	Decisions    int64
	Propagations int64
	BlastHits    int64
	BlastMisses  int64
	AckReads     int64
}

// stageAgg accumulates span observations for one stage name.
type stageAgg struct {
	name string
	hist Histogram
}

// Tracer collects spans, query events, and verdicts. All methods are safe
// for concurrent use and safe on a nil receiver (the disabled fast path).
type Tracer struct {
	start time.Time
	out   *logdb.Writer // nil: aggregates only

	// Live aggregates. Only observe changes them (ProgramDone aside: a
	// program completion has no trace record).
	totalPrograms   atomic.Int64
	programs        atomic.Int64
	experiments     atomic.Int64
	counterexamples atomic.Int64
	inconclusive    atomic.Int64

	queryHist    Histogram
	conflicts    atomic.Int64
	decisions    atomic.Int64
	propagations atomic.Int64
	blastHits    atomic.Int64
	blastMisses  atomic.Int64
	ackReads     atomic.Int64

	// Resilience counters (schema v2 kinds).
	retries     atomic.Int64
	timeouts    atomic.Int64
	skips       atomic.Int64
	quarantines atomic.Int64

	// Crash-safety counter (schema v5).
	resumedPrograms atomic.Int64

	// Per-platform verdict aggregates of a matrix campaign (schema v4).
	platMu    sync.Mutex
	platforms map[string]*PlatformCount

	stagesMu sync.RWMutex
	stages   map[string]*stageAgg
	order    []*stageAgg // first-seen order
}

// New returns a tracer writing JSONL records to w. A nil w yields an
// aggregates-only tracer: spans and queries update the live counters and
// histograms but no trace is written — the mode behind -progress and
// -debug-addr without -trace.
func New(w io.Writer) *Tracer {
	t := &Tracer{start: time.Now(), stages: make(map[string]*stageAgg)}
	if w != nil {
		t.out = logdb.NewWriter(w)
	}
	return t
}

// Create opens (or truncates) a trace file and returns a tracer writing
// to it. Close flushes and closes the file.
func Create(path string) (*Tracer, error) {
	out, err := logdb.Create(path)
	if err != nil {
		return nil, err
	}
	t := New(nil)
	t.out = out
	return t, nil
}

// Enabled reports whether the tracer records anything. It is the one
// pointer check instrumentation sites pay when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// now returns microseconds since the tracer started.
func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// record folds one record into the live aggregates, stamps the schema
// version on it, and appends it to the trace file (when one is open). Every
// event method funnels through here, so the aggregates and the trace see
// exactly the same records. The writer keeps the first write error for
// Close to report.
func (t *Tracer) record(rec *Record) {
	t.observe(rec)
	rec.V = SchemaVersion
	if t.out != nil {
		t.out.Append(rec)
	}
}

// BeginCampaign records a campaign-start record; its expected program count
// joins the progress denominator. Multiple campaigns may share one tracer
// (cmd/scamv runs several per invocation).
func (t *Tracer) BeginCampaign(name string, programs int) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "campaign", TSus: t.now(), Name: name, Programs: programs})
}

// stage returns (creating if needed) the aggregate for a stage name.
func (t *Tracer) stage(name string) *stageAgg {
	t.stagesMu.RLock()
	a := t.stages[name]
	t.stagesMu.RUnlock()
	if a != nil {
		return a
	}
	t.stagesMu.Lock()
	defer t.stagesMu.Unlock()
	if a = t.stages[name]; a == nil {
		a = &stageAgg{name: name}
		t.stages[name] = a
		t.order = append(t.order, a)
	}
	return a
}

// observe folds one record into the live aggregates. It is the only code
// that changes them, for live events and replayed traces alike. Durations
// are taken from the record's microseconds, which is also what the
// histograms bucket on, so a replay reproduces the live aggregates exactly.
// Kinds it does not know (the retired v3 "shape" and v5 "checkpoint") are
// ignored.
func (t *Tracer) observe(rec *Record) {
	d := time.Duration(rec.DurUS) * time.Microsecond
	switch rec.Kind {
	case "campaign":
		t.totalPrograms.Add(int64(rec.Programs))
	case "span":
		t.stage(rec.Stage).hist.Observe(d)
	case "query":
		t.queryHist.Observe(d)
		t.conflicts.Add(rec.Conflicts)
		t.decisions.Add(rec.Decisions)
		t.propagations.Add(rec.Propagations)
		t.blastHits.Add(rec.BlastHits)
		t.blastMisses.Add(rec.BlastMisses)
		t.ackReads.Add(rec.AckReads)
	case "verdict":
		t.experiments.Add(1)
		switch rec.Verdict {
		case "counterexample":
			t.counterexamples.Add(1)
		case "inconclusive":
			t.inconclusive.Add(1)
		}
	case "platform":
		t.platMu.Lock()
		if t.platforms == nil {
			t.platforms = make(map[string]*PlatformCount)
		}
		pc := t.platforms[rec.Name]
		if pc == nil {
			pc = &PlatformCount{Name: rec.Name}
			t.platforms[rec.Name] = pc
		}
		pc.Experiments++
		switch rec.Verdict {
		case "counterexample":
			pc.Counterexamples++
		case "inconclusive":
			pc.Inconclusive++
		}
		t.platMu.Unlock()
	case "retry":
		t.retries.Add(1)
	case "timeout":
		t.timeouts.Add(1)
	case "skip":
		t.skips.Add(1)
	case "quarantine":
		t.quarantines.Add(1)
	case "resume":
		// Restored programs count as completed too, so the progress line
		// starts at N/P instead of replaying from zero.
		t.resumedPrograms.Add(int64(rec.Programs))
		t.programs.Add(int64(rec.Programs))
	}
}

// Span records one pipeline stage's work on one program, measured from
// start to now. Call it at the end of the stage body:
//
//	t0 := time.Now()
//	... stage work ...
//	tr.Span("testgen", p, t0)
func (t *Tracer) Span(stage string, prog int, start time.Time) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "span", TSus: t.now(), Prog: prog, Stage: stage,
		DurUS: time.Since(start).Microseconds()})
}

// Query records one solver query with its effort deltas.
func (t *Tracer) Query(ev QueryEvent) {
	if t == nil {
		return
	}
	t.record(&Record{
		Kind: "query", TSus: t.now(), Prog: ev.Prog,
		PathA: ev.PathA, PathB: ev.PathB, Class: ev.Class, Slot: ev.Slot,
		Status: ev.Status, DurUS: ev.Dur.Microseconds(),
		Conflicts: ev.Conflicts, Decisions: ev.Decisions, Propagations: ev.Propagations,
		BlastHits: ev.BlastHits, BlastMisses: ev.BlastMisses, AckReads: ev.AckReads,
	})
}

// Verdict records one executed test case's classification and execution time.
func (t *Tracer) Verdict(prog, test int, verdict string, dur time.Duration) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "verdict", TSus: t.now(), Prog: prog, Test: test,
		Verdict: verdict, DurUS: dur.Microseconds()})
}

// PlatformVerdict records one platform's verdict for one test case of a
// matrix campaign. Unlike Verdict it does not bump the campaign experiment
// counters — the primary platform's Verdict call already did — it feeds the
// per-platform aggregates and the v4 "platform" trace kind.
func (t *Tracer) PlatformVerdict(prog, test int, platform, verdict string, dur time.Duration) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "platform", TSus: t.now(), Prog: prog, Test: test,
		Name: platform, Verdict: verdict, DurUS: dur.Microseconds()})
}

// Retry records one platform-execution retry: attempt (0-based) failed with
// reason and will be re-attempted after backoff.
func (t *Tracer) Retry(prog, test, attempt int, reason string) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "retry", TSus: t.now(), Prog: prog, Test: test,
		Attempt: attempt, Reason: reason})
}

// Timeout records one platform attempt exceeding its per-Execute deadline.
func (t *Tracer) Timeout(prog, test, attempt int) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "timeout", TSus: t.now(), Prog: prog, Test: test, Attempt: attempt})
}

// Skip records one test case abandoned under FailPolicy Degrade.
func (t *Tracer) Skip(prog, test int, reason string) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "skip", TSus: t.now(), Prog: prog, Test: test, Reason: reason})
}

// Quarantine records one program being quarantined after consecutive
// failures.
func (t *Tracer) Quarantine(prog int, reason string) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "quarantine", TSus: t.now(), Prog: prog, Reason: reason})
}

// Resume records a campaign restoring a journaled prefix of programs
// completed before a restart. The restored count feeds both the resumed
// counter and the completed-programs counter.
func (t *Tracer) Resume(name string, programs int) {
	if t == nil {
		return
	}
	t.record(&Record{Kind: "resume", TSus: t.now(), Name: name, Programs: programs})
}

// ProgramDone bumps the completed-program counter behind the progress line.
func (t *Tracer) ProgramDone() {
	if t == nil {
		return
	}
	t.programs.Add(1)
}

// PlatformCount is one matrix platform's live verdict aggregate.
type PlatformCount struct {
	Name            string `json:"name"`
	Experiments     int64  `json:"experiments"`
	Counterexamples int64  `json:"counterexamples"`
	Inconclusive    int64  `json:"inconclusive"`
}

// StageCount is one latency distribution: a stage's spans in a Counters
// snapshot, or any other histogram summarized by Histogram.Summary. BusyUS
// is the distribution's total time.
type StageCount struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	BusyUS int64  `json:"busy_us"`
	P50US  int64  `json:"p50_us"`
	P95US  int64  `json:"p95_us"`
	P99US  int64  `json:"p99_us"`
}

// Counters is a point-in-time copy of the tracer's aggregates: the one
// definition behind the progress line, /metrics, and the /debug/scamv JSON
// document, whose keys are its JSON tags. Durations are integer
// microseconds, the resolution every histogram buckets at.
type Counters struct {
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

	Retries     int64 `json:"retries"`
	Timeouts    int64 `json:"timeouts"`
	Skips       int64 `json:"skips"`
	Quarantines int64 `json:"quarantines"`

	// ResumedPrograms counts programs restored from campaign journals
	// (included in Programs).
	ResumedPrograms int64 `json:"resumed_programs,omitempty"`

	Stages []StageCount `json:"stages,omitempty"` // first-seen (pipeline) order

	// Platforms holds per-platform verdict aggregates of matrix campaigns,
	// sorted by platform name; empty for single-platform campaigns.
	Platforms []PlatformCount `json:"platforms,omitempty"`
}

// Snapshot copies the live aggregates. Safe to call while the campaign runs.
func (t *Tracer) Snapshot() Counters {
	if t == nil {
		return Counters{}
	}
	q := t.queryHist.Summary("")
	c := Counters{
		ElapsedUS:       time.Since(t.start).Microseconds(),
		TotalPrograms:   t.totalPrograms.Load(),
		Programs:        t.programs.Load(),
		Experiments:     t.experiments.Load(),
		Counterexamples: t.counterexamples.Load(),
		Inconclusive:    t.inconclusive.Load(),
		Queries:         q.Count,
		QueryTimeUS:     q.BusyUS,
		QueryP50US:      q.P50US,
		QueryP95US:      q.P95US,
		QueryP99US:      q.P99US,
		Conflicts:       t.conflicts.Load(),
		Decisions:       t.decisions.Load(),
		Propagations:    t.propagations.Load(),
		BlastHits:       t.blastHits.Load(),
		BlastMisses:     t.blastMisses.Load(),
		AckReads:        t.ackReads.Load(),
		Retries:         t.retries.Load(),
		Timeouts:        t.timeouts.Load(),
		Skips:           t.skips.Load(),
		Quarantines:     t.quarantines.Load(),
		ResumedPrograms: t.resumedPrograms.Load(),
	}
	t.platMu.Lock()
	for _, pc := range t.platforms {
		c.Platforms = append(c.Platforms, *pc)
	}
	t.platMu.Unlock()
	sort.Slice(c.Platforms, func(i, j int) bool { return c.Platforms[i].Name < c.Platforms[j].Name })
	for _, a := range t.stageOrder() {
		c.Stages = append(c.Stages, a.hist.Summary(a.name))
	}
	return c
}

// stageOrder copies the stage aggregates in first-seen order.
func (t *Tracer) stageOrder() []*stageAgg {
	t.stagesMu.RLock()
	defer t.stagesMu.RUnlock()
	return append([]*stageAgg(nil), t.order...)
}

// Replay runs loaded trace records through the live aggregator and returns
// the counters a Tracer that had emitted them would hold. Two fields have no
// trace record and differ from the live Snapshot: ElapsedUS is zero, and
// Programs counts only resumed programs (completions are not traced).
func Replay(recs []Record) Counters {
	t := New(nil)
	for i := range recs {
		t.observe(&recs[i])
	}
	c := t.Snapshot()
	c.ElapsedUS = 0
	return c
}

// Close flushes the trace and closes the underlying file, if any, joining
// the flush and close errors with any earlier write error (logdb.Writer's
// Close).
func (t *Tracer) Close() error {
	if t == nil || t.out == nil {
		return nil
	}
	return t.out.Close()
}

// CheckRecord is the trace's per-record check for logdb.Read and
// logdb.Load: a record from a newer schema or without a kind is corruption,
// a hard error even on the final line.
func CheckRecord(rec *Record) error {
	if rec.V > SchemaVersion {
		return fmt.Errorf("trace schema v%d newer than supported v%d", rec.V, SchemaVersion)
	}
	if rec.Kind == "" {
		return errors.New("record without kind")
	}
	return nil
}
