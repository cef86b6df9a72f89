package scamv

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"scamv/internal/gen"
	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// traceCampaign is a small refined M_ct campaign for telemetry round trips.
func traceCampaign(parallel int) Experiment {
	_, refined := MCtExperiments(gen.TemplateA{}, 3, 6, 2021)
	refined.Name = "trace-mct-a"
	refined.Parallel = parallel
	return refined
}

// traceCounts aggregates a trace for equivalence checks.
type traceCounts struct {
	campaigns, spans, queries, verdicts int
	cex                                 int
	spanStages                          map[string]int
	statuses                            map[string]int
}

func countTrace(recs []telemetry.Record) traceCounts {
	c := traceCounts{spanStages: map[string]int{}, statuses: map[string]int{}}
	for _, r := range recs {
		switch r.Kind {
		case "campaign":
			c.campaigns++
		case "span":
			c.spans++
			c.spanStages[r.Stage]++
		case "query":
			c.queries++
			c.statuses[r.Status]++
		case "verdict":
			c.verdicts++
			if r.Verdict == "counterexample" {
				c.cex++
			}
		}
	}
	return c
}

func runTraced(t *testing.T, parallel int) (*Result, []telemetry.Record, telemetry.Counters) {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	e := traceCampaign(parallel)
	e.Trace = tr
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := logdb.Read(&buf, telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	return res, recs, tr.Snapshot()
}

// assertReplayMatchesLive requires telemetry.Replay of a campaign's trace to
// equal the tracer's live snapshot on every field a trace record feeds:
// stages, the query distribution and effort counters, verdicts, resilience
// and crash-safety counts, platforms, and TotalPrograms. Programs and
// ElapsedUS are excluded because program completions and the wall clock have
// no trace record.
func assertReplayMatchesLive(t *testing.T, recs []telemetry.Record, live telemetry.Counters) {
	t.Helper()
	replay := telemetry.Replay(recs)
	replay.Programs = 0
	live.ElapsedUS, live.Programs = 0, 0
	if !reflect.DeepEqual(replay, live) {
		t.Errorf("replayed trace diverges from the live counters:\nreplay %+v\nlive   %+v", replay, live)
	}
}

// TestTraceMatchesResult checks that the JSONL trace of a campaign
// agrees record-for-record with the campaign Result: one span per program
// per stage, one query event per solver query, one verdict per experiment.
func TestTraceMatchesResult(t *testing.T) {
	res, recs, snap := runTraced(t, 2)

	c := countTrace(recs)
	if c.campaigns != 1 {
		t.Errorf("campaign records = %d, want 1", c.campaigns)
	}
	if recs[0].Kind != "campaign" || recs[0].Name != "trace-mct-a" || recs[0].Programs != 3 {
		t.Errorf("first record must announce the campaign: %+v", recs[0])
	}
	for _, stage := range []string{"proggen", "encode", "lift", "symexec", "testgen", "execute"} {
		if c.spanStages[stage] != res.Programs {
			t.Errorf("stage %s has %d spans, want %d (one per program)",
				stage, c.spanStages[stage], res.Programs)
		}
	}
	if c.queries != res.Queries {
		t.Errorf("query events = %d, want Result.Queries = %d", c.queries, res.Queries)
	}
	if c.verdicts != res.Experiments {
		t.Errorf("verdict events = %d, want Result.Experiments = %d", c.verdicts, res.Experiments)
	}
	if c.cex != res.Counterexamples {
		t.Errorf("counterexample verdicts = %d, want %d", c.cex, res.Counterexamples)
	}
	if c.statuses["sat"] == 0 {
		t.Error("a campaign that generated tests must have sat queries")
	}
	// Query events carry effort: at least one must show search activity.
	var effort int64
	for _, r := range recs {
		if r.Kind == "query" {
			effort += r.Propagations + r.Decisions
		}
	}
	if effort == 0 {
		t.Error("query events carry no solver effort deltas")
	}

	// The live aggregates agree with the trace and the Result.
	if snap.Programs != int64(res.Programs) || snap.Experiments != int64(res.Experiments) ||
		snap.Counterexamples != int64(res.Counterexamples) || snap.Queries != int64(res.Queries) {
		t.Errorf("snapshot diverges from result: %+v vs %+v", snap, res)
	}
	if snap.TotalPrograms != 3 {
		t.Errorf("snapshot total programs = %d, want 3", snap.TotalPrograms)
	}
	assertReplayMatchesLive(t, recs, snap)
}

// TestTraceEngineEquivalence checks that the engine emits the same trace
// aggregate for the same seed whether programs run one at a time or four
// in flight: the telemetry spine must not depend on scheduling.
func TestTraceEngineEquivalence(t *testing.T) {
	resSeq, recsSeq, _ := runTraced(t, 1)
	resPar, recsPar, _ := runTraced(t, 4)

	if resPar.Experiments != resSeq.Experiments ||
		resPar.Counterexamples != resSeq.Counterexamples ||
		resPar.Queries != resSeq.Queries {
		t.Fatalf("campaigns diverge before telemetry comparison: %+v vs %+v", resSeq, resPar)
	}
	cs, cp := countTrace(recsSeq), countTrace(recsPar)
	if cs.spans != cp.spans || cs.queries != cp.queries || cs.verdicts != cp.verdicts || cs.cex != cp.cex {
		t.Errorf("trace shape differs across parallelism:\nparallel 1 %+v\nparallel 4 %+v", cs, cp)
	}
	for stage, n := range cs.spanStages {
		if cp.spanStages[stage] != n {
			t.Errorf("stage %s: %d spans at parallel 1 vs %d at parallel 4", stage, n, cp.spanStages[stage])
		}
	}
	for status, n := range cs.statuses {
		if cp.statuses[status] != n {
			t.Errorf("%s queries: %d at parallel 1 vs %d at parallel 4", status, n, cp.statuses[status])
		}
	}
}

// TestTracingDoesNotPerturbCounts ensures an attached tracer leaves the
// campaign's deterministic counts untouched (observation must not refine
// the observed system, as it were).
func TestTracingDoesNotPerturbCounts(t *testing.T) {
	plain := traceCampaign(2)
	res0, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	res1, _, _ := runTraced(t, 2)
	if res0.Experiments != res1.Experiments || res0.Counterexamples != res1.Counterexamples ||
		res0.Inconclusive != res1.Inconclusive || res0.Queries != res1.Queries ||
		res0.FirstCEProgram != res1.FirstCEProgram || res0.FirstCETest != res1.FirstCETest {
		t.Errorf("tracing perturbed campaign counts:\nplain  %+v\ntraced %+v", res0, res1)
	}
}
