package scamv

import (
	"context"
	"fmt"
	"math/rand"

	"scamv/internal/core"
	"scamv/internal/lazyrand"
	"scamv/internal/resilient"
)

// This file is the resilience layer between the campaign engines and the
// Platform: per-Execute deadlines and seeded-backoff retries (via
// internal/resilient), and the Degrade fail policy with per-test skips and
// program quarantine. The paper's real platform is a farm of Raspberry Pi
// boards driven over a debug bridge — boards hang, resets fail,
// measurements get lost — and a campaign must be able to survive a sick
// backend instead of dying with it.

// FailPolicy selects what a campaign does when platform execution keeps
// failing after the retry budget.
type FailPolicy int

// Fail policies.
const (
	// FailFast aborts the whole campaign on the first exhausted test case
	// (the pre-resilience semantics; the default).
	FailFast FailPolicy = iota
	// Degrade records the failed test as skipped (Result.SkippedTests,
	// Result.Skips) and continues; a program with QuarantineAfter
	// consecutive failures is quarantined and its remaining tests skipped.
	// Counts remain deterministic per seed for a deterministic platform.
	Degrade
)

func (p FailPolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "failfast"
}

// ParseFailPolicy parses the -fail-policy flag values.
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch s {
	case "failfast", "fail-fast", "":
		return FailFast, nil
	case "degrade":
		return Degrade, nil
	}
	return 0, fmt.Errorf("scamv: unknown fail policy %q (want failfast or degrade)", s)
}

// Skip records one unit of work abandoned under FailPolicy Degrade: a test
// case whose retry budget was exhausted, or (Test == -1) a whole program
// quarantined after consecutive failures.
type Skip struct {
	Prog   int    `json:"prog"`   // program index in campaign order
	Test   int    `json:"test"`   // test index, or -1 for a program-level quarantine record
	Reason string `json:"reason"` // last error, human-readable
}

// execStats counts the resilience events of one executed test case.
type execStats struct {
	retries  int
	timeouts int
}

// execPolicy builds the per-call retry policy. The jitter stream is salted
// with the call's noise seed (already unique per (program, test) — see
// noiseSeed), the repeat, and the side, so every platform call owns an
// independent, reproducible backoff schedule.
func execPolicy(e *Experiment, p, t, rep, side int, nseed int64, stats *execStats) resilient.Policy {
	return resilient.Policy{
		Timeout:    e.ExecTimeout,
		Retries:    e.Retries,
		JitterSeed: splitmix64(uint64(nseed) ^ uint64(side)<<32 ^ 0xbadc0de),
		OnRetry: func(attempt int, err error) {
			stats.retries++
			e.Trace.Retry(p, t, attempt, err.Error())
		},
		OnTimeout: func(attempt int) {
			stats.timeouts++
			e.Trace.Timeout(p, t, attempt)
		},
	}
}

// executeOnce runs one side of one repetition on the platform under the
// experiment's retry/timeout policy. The noise RNG is rebuilt from its seed
// inside every attempt, so a retried attempt sees exactly the noise stream
// the failed one did — retries cannot perturb a deterministic platform.
func (pl *Pipeline) executeOnce(ctx context.Context, e *Experiment, p, t, rep, side int, st, train *core.State, nseed int64, stats *execStats) (Measurement, error) {
	m, _, err := resilient.Do(ctx, execPolicy(e, p, t, rep, side, nseed, stats),
		func(actx context.Context) (Measurement, error) {
			var noise *rand.Rand
			if e.Micro.NoiseProb > 0 {
				noise = lazyrand.New(nseed)
			}
			return e.platform().Execute(actx, e, pl.Prog, st, train, noise)
		})
	if err != nil {
		// The engines prepend "scamv: program %d:" on the fail-fast path and
		// Skip.Prog carries the index on the degrade path, so the wrap here
		// adds the rest of the call identity: which test, repeat, and side.
		if t >= 0 {
			return Measurement{}, fmt.Errorf("test %d repeat %d S%d (%s): %w", t, rep, side, pl.Prog.Name, err)
		}
		return Measurement{}, fmt.Errorf("repeat %d S%d (%s): %w", rep, side, pl.Prog.Name, err)
	}
	return m, nil
}

// executeTestCase is ExecuteTestCase with the campaign plumbing: context,
// program/test indexes for telemetry and error context, and resilience
// stats. p and t are -1 when called outside a campaign.
func (pl *Pipeline) executeTestCase(ctx context.Context, e *Experiment, p, t int, tc *core.TestCase, train *core.State, noiseSeed int64) (Verdict, execStats, error) {
	var verdict Verdict
	var stats execStats
	for rep := 0; rep < e.Repeats; rep++ {
		m1, err := pl.executeOnce(ctx, e, p, t, rep, 1, tc.S1, train, noiseSeed+int64(rep)*2, &stats)
		if err != nil {
			return 0, stats, err
		}
		m2, err := pl.executeOnce(ctx, e, p, t, rep, 2, tc.S2, train, noiseSeed+int64(rep)*2+1, &stats)
		if err != nil {
			return 0, stats, err
		}
		d := Indistinguishable
		if m1.Distinguishable(m2, e.TimingAttacker) {
			d = Counterexample
		}
		if rep == 0 {
			verdict = d
		} else if d != verdict {
			return Inconclusive, stats, nil
		}
	}
	return verdict, stats, nil
}
