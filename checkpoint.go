package scamv

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scamv/internal/journal"
	"scamv/internal/obs"
)

// This file is the campaign side of crash safety: the configuration
// fingerprint that guards resume, the converters between the in-memory
// programResult and the durable journal.ProgramRecord, and the signal
// wiring for graceful shutdown. The durability mechanics live in
// internal/journal; the engine hooks in at Result.mergeProgram.

// fingerprintConfig is the canonical serialization of every experiment knob
// that influences campaign counts. Resume refuses a journal whose fingerprint
// differs: splicing programs [N, P) generated under one configuration onto a
// prefix generated under another would produce a Result no uninterrupted run
// could — silently.
//
// Deliberately excluded: Parallel, ExecTimeout, and RetryBackoff
// are count-invariant (scheduling and wall-clock only), so a campaign may
// legitimately resume with different values — e.g. fewer workers on a smaller
// machine. Template, Platform, and AttackerView are code, not data, and
// cannot be fingerprinted; swapping them between runs is the caller's
// responsibility to avoid (cmd/scamv derives all three from fingerprinted
// fields, so its campaigns are fully covered).
type fingerprintConfig struct {
	Name            string  `json:"name"`
	Seed            int64   `json:"seed"`
	Programs        int     `json:"programs"`
	TestsPerProgram int     `json:"tests_per_program"`
	Model           string  `json:"model"`
	Refined         bool    `json:"refined"`
	Support         string  `json:"support"`
	Repeats         int     `json:"repeats"`
	TrainRuns       int     `json:"train_runs"`
	Speculative     bool    `json:"speculative"`
	TimingAttacker  bool    `json:"timing_attacker"`
	RandomPhaseProb float64 `json:"random_phase_prob"`
	MaxConflicts    int64   `json:"max_conflicts"`
	FailPolicy      int     `json:"fail_policy"`
	QuarantineAfter int     `json:"quarantine_after"`
	Retries         int     `json:"retries"`
	// Micro configs are flat value structs, so the %+v rendering is a stable
	// identity without hand-maintaining a field list here.
	Micro     string   `json:"micro"`
	Platforms []string `json:"platforms,omitempty"`
}

// journalFingerprint renders the experiment's count-affecting configuration
// for the journal header. Call on a WithDefaults-applied experiment (as
// RunContext does) so defaulted and explicit values fingerprint identically.
func journalFingerprint(e *Experiment) string {
	fc := fingerprintConfig{
		Name:            e.Name,
		Seed:            e.Seed,
		Programs:        e.Programs,
		TestsPerProgram: e.TestsPerProgram,
		Model:           e.Model.Name(),
		Refined:         e.Refined,
		Support:         obs.SupportName(e.Support),
		Repeats:         e.Repeats,
		TrainRuns:       e.TrainRuns,
		Speculative:     e.Speculative,
		TimingAttacker:  e.TimingAttacker,
		RandomPhaseProb: e.RandomPhaseProb,
		MaxConflicts:    e.MaxConflicts,
		FailPolicy:      int(e.FailPolicy),
		QuarantineAfter: e.QuarantineAfter,
		Retries:         e.Retries,
		Micro:           fmt.Sprintf("%+v", e.Micro),
	}
	for _, spec := range e.Platforms {
		fc.Platforms = append(fc.Platforms,
			spec.Name+"="+fmt.Sprintf("%+v", spec.Micro))
	}
	b, err := json.Marshal(fc)
	if err != nil {
		// Marshaling a struct of strings, numbers and bools cannot fail.
		panic("scamv: fingerprint marshal: " + err.Error())
	}
	return string(b)
}

// toJournalRecord converts one committed program result into its durable
// form. Durations are journaled at microsecond granularity — they are
// wall-clock fields, outside the resume-equivalence contract.
func toJournalRecord(p int, out *programResult) journal.ProgramRecord {
	rec := journal.ProgramRecord{
		Prog:            p,
		Experiments:     out.experiments,
		Counterexamples: out.counterexamples,
		Inconclusive:    out.inconclusive,
		EncodeFallbacks: out.encodeFallbacks,
		Queries:         out.queries,
		GenUS:           out.genTime.Microseconds(),
		ExeUS:           out.exeTime.Microseconds(),
		Found:           out.found,
		FirstCETest:     out.firstCETest,
		TTCUS:           out.ttcWall.Microseconds(),
		SkippedTests:    out.skippedTests,
		Quarantined:     out.quarantined,
		Retries:         out.retries,
		Timeouts:        out.timeouts,
		Logs:            out.records,
	}
	for _, s := range out.skips {
		rec.Skips = append(rec.Skips, journal.Skip(s))
	}
	for i := range out.platforms {
		pt := &out.platforms[i]
		rec.Platforms = append(rec.Platforms, journal.PlatformTally{
			Experiments:     pt.experiments,
			Counterexamples: pt.counterexamples,
			Inconclusive:    pt.inconclusive,
			Skipped:         pt.skipped,
			ExeUS:           pt.exeTime.Microseconds(),
			Found:           pt.found,
			FirstCETest:     pt.firstCETest,
		})
	}
	return rec
}

// fromJournalRecord reconstructs the in-memory result of a restored program
// so the resume path can feed it through the same mergeProgram step the
// engines use — one merge implementation, uninterrupted or resumed.
func fromJournalRecord(jr journal.ProgramRecord) *programResult {
	out := &programResult{
		experiments:     jr.Experiments,
		counterexamples: jr.Counterexamples,
		inconclusive:    jr.Inconclusive,
		encodeFallbacks: jr.EncodeFallbacks,
		queries:         jr.Queries,
		genTime:         time.Duration(jr.GenUS) * time.Microsecond,
		exeTime:         time.Duration(jr.ExeUS) * time.Microsecond,
		found:           jr.Found,
		firstCETest:     jr.FirstCETest,
		ttcWall:         time.Duration(jr.TTCUS) * time.Microsecond,
		skippedTests:    jr.SkippedTests,
		quarantined:     jr.Quarantined,
		retries:         jr.Retries,
		timeouts:        jr.Timeouts,
		records:         jr.Logs,
	}
	for _, s := range jr.Skips {
		out.skips = append(out.skips, Skip(s))
	}
	for i := range jr.Platforms {
		pt := &jr.Platforms[i]
		out.platforms = append(out.platforms, platformTally{
			experiments:     pt.Experiments,
			counterexamples: pt.Counterexamples,
			inconclusive:    pt.Inconclusive,
			skipped:         pt.Skipped,
			exeTime:         time.Duration(pt.ExeUS) * time.Microsecond,
			found:           pt.Found,
			firstCETest:     pt.FirstCETest,
		})
	}
	return out
}

// ArmShutdown wires SIGINT/SIGTERM to the graceful-shutdown protocol and
// returns the drain channel to put in Experiment.Drain. The first signal
// calls onFirst (status reporting) and closes the channel: the engines stop
// starting programs, everything in flight completes and merges, and the
// campaign returns a resumable partial Result with Drained set. A second
// signal calls onSecond — typically an immediate non-zero exit for a wedged
// drain. Both callbacks run on the signal goroutine and may be nil. The
// handler stays installed for the life of the process.
func ArmShutdown(onFirst, onSecond func()) <-chan struct{} {
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		if onFirst != nil {
			onFirst()
		}
		close(drain)
		<-sigCh
		if onSecond != nil {
			onSecond()
		}
	}()
	return drain
}
