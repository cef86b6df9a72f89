package scamv

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"scamv/internal/obs"
)

// This file is the campaign side of crash safety: the configuration
// fingerprint that guards resume and the signal wiring for graceful
// shutdown. The durability mechanics live in internal/journal, which stores
// each program's programResult as is; the engine hooks in at
// Result.mergeProgram.

// fingerprintConfig is the canonical serialization of every experiment knob
// that influences campaign counts. Resume refuses a journal whose fingerprint
// differs: splicing programs [N, P) generated under one configuration onto a
// prefix generated under another would produce a Result no uninterrupted run
// could — silently.
//
// Deliberately excluded: Parallel and ExecTimeout are count-invariant
// (scheduling and wall-clock only), so a campaign may legitimately resume
// with different values — e.g. fewer workers on a smaller machine.
// Template, Platform, and AttackerView are code, not data, and cannot be
// fingerprinted; swapping them between runs is the caller's responsibility
// to avoid (cmd/scamv derives all three from fingerprinted fields, so its
// campaigns are fully covered).
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
