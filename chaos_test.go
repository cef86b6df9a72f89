// Chaos tests live in an external test package: internal/faultinject imports
// scamv (it wraps scamv.Platform), so an in-package test would be an import
// cycle.
package scamv_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/faultinject"
	"scamv/internal/journal"
	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

// golden strips a Result to its seed-deterministic fields: everything except
// wall-clock durations and the scheduling-dependent TTC.
type golden struct {
	Programs            int
	ProgramsWithCounter int
	Experiments         int
	Counterexamples     int
	Inconclusive        int
	Found               bool
	FirstCEProgram      int
	FirstCETest         int
	SkippedTests        int
	QuarantinedPrograms int
	Skips               []scamv.Skip
	Retries             int
	Timeouts            int
}

func goldenOf(r *scamv.Result) golden {
	return golden{
		Programs:            r.Programs,
		ProgramsWithCounter: r.ProgramsWithCounter,
		Experiments:         r.Experiments,
		Counterexamples:     r.Counterexamples,
		Inconclusive:        r.Inconclusive,
		Found:               r.Found,
		FirstCEProgram:      r.FirstCEProgram,
		FirstCETest:         r.FirstCETest,
		SkippedTests:        r.SkippedTests,
		QuarantinedPrograms: r.QuarantinedPrograms,
		Skips:               r.Skips,
		Retries:             r.Retries,
		Timeouts:            r.Timeouts,
	}
}

// chaosExperiment builds a small Mpart campaign under the heavy chaos
// profile with FailPolicy Degrade. The fault injector is rebuilt per call:
// its per-identity attempt counters are run-local state, and sharing one
// injector across runs would advance the schedule.
func chaosExperiment(parallel int) scamv.Experiment {
	u, _ := scamv.MPartExperiments(false, 5, 6, 2021)
	u.Repeats = 2
	u.Parallel = parallel
	u.FailPolicy = scamv.Degrade
	u.Retries = 2
	prof, err := faultinject.Named("heavy")
	if err != nil {
		panic(err)
	}
	u.Platform = faultinject.New(nil, prof, 2021)
	return u
}

// chaosTimeoutExperiment is chaosExperiment with the heavy profile's hangs
// unbounded under a 20ms ExecTimeout, far above a real execution's cost, so
// each hang is a timeout and nothing else is, and with QuarantineAfter 1, so
// one failed test quarantines a program.
func chaosTimeoutExperiment(parallel int) scamv.Experiment {
	e := chaosExperiment(parallel)
	prof, err := faultinject.Named("heavy")
	if err != nil {
		panic(err)
	}
	prof.HangFor = 0
	e.Platform = faultinject.New(nil, prof, 2021)
	e.ExecTimeout = 20 * time.Millisecond
	e.QuarantineAfter = 1
	return e
}

// TestChaosGoldenDeterministic pins the resilience contract: the same seed
// and chaos profile produce the same degraded Result — across repeat runs
// and across Parallel 1 and 4 — and each configuration actually degrades
// something, so the equality is not vacuous: the bounded hangs skip or
// retry, and the unbounded ones time out and quarantine.
func TestChaosGoldenDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		exp      func(parallel int) scamv.Experiment
		degraded func(golden) bool
	}{
		{"bounded-hangs", chaosExperiment, func(g golden) bool { return g.SkippedTests > 0 || g.Retries > 0 }},
		{"timeouts", chaosTimeoutExperiment, func(g golden) bool { return g.Timeouts > 0 && g.QuarantinedPrograms > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par1, err := scamv.Run(tc.exp(4))
			if err != nil {
				t.Fatalf("chaos campaign failed under Degrade: %v", err)
			}
			par2, err := scamv.Run(tc.exp(4))
			if err != nil {
				t.Fatal(err)
			}
			seq, err := scamv.Run(tc.exp(1))
			if err != nil {
				t.Fatalf("sequential chaos campaign failed under Degrade: %v", err)
			}

			g1, g2, gs := goldenOf(par1), goldenOf(par2), goldenOf(seq)
			if !reflect.DeepEqual(g1, g2) {
				t.Errorf("repeat run diverged:\nrun1: %+v\nrun2: %+v", g1, g2)
			}
			if !reflect.DeepEqual(g1, gs) {
				t.Errorf("parallel 4 and 1 diverged:\nparallel 4: %+v\nparallel 1: %+v", g1, gs)
			}
			if !tc.degraded(g1) {
				t.Errorf("chaos degraded too little for the golden equality to mean anything: %+v", g1)
			}
			// Every skip carries a reason and a valid program index.
			for _, s := range par1.Skips {
				if s.Reason == "" || s.Prog < 0 || s.Prog >= g1.Programs {
					t.Errorf("malformed skip record: %+v", s)
				}
			}
		})
	}
}

// TestChaosTraceReplaysLive traces one degraded campaign and requires the
// trace's replay to reproduce the live counters, with the retry, timeout,
// skip and quarantine counters all exercised.
func TestChaosTraceReplaysLive(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	e := chaosTimeoutExperiment(4)
	e.Trace = tr
	if _, err := scamv.Run(e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := logdb.Read(&buf, telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	live := tr.Snapshot()
	if live.Retries == 0 || live.Timeouts == 0 || live.Skips == 0 || live.Quarantines == 0 {
		t.Errorf("heavy chaos left a resilience counter at zero: retries %d timeouts %d skips %d quarantines %d",
			live.Retries, live.Timeouts, live.Skips, live.Quarantines)
	}
	scamv.AssertReplayMatchesLive(t, recs, live)
}

// TestChaosFailFastAborts pins the default policy: the same chaos campaign
// without Degrade fails instead of silently skipping.
func TestChaosFailFastAborts(t *testing.T) {
	e := chaosExperiment(4)
	e.FailPolicy = scamv.FailFast
	e.Retries = 0
	if _, err := scamv.Run(e); err == nil {
		t.Fatal("heavy chaos under FailFast with no retries completed without error")
	}
}

// TestDegradeHealthyMatchesFailFast pins the no-op guarantee: on a healthy
// platform, Degrade changes nothing — same counts, no skips, and a rendered
// table byte-identical to the FailFast one.
func TestDegradeHealthyMatchesFailFast(t *testing.T) {
	run := func(p scamv.FailPolicy) *scamv.Result {
		u, _ := scamv.MPartExperiments(false, 4, 6, 2021)
		u.Repeats = 2
		u.FailPolicy = p
		r, err := scamv.Run(u)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ff := run(scamv.FailFast)
	dg := run(scamv.Degrade)
	if !reflect.DeepEqual(goldenOf(ff), goldenOf(dg)) {
		t.Errorf("healthy Degrade diverged from FailFast:\nfailfast: %+v\ndegrade:  %+v",
			goldenOf(ff), goldenOf(dg))
	}
	if dg.SkippedTests != 0 || dg.QuarantinedPrograms != 0 || dg.Retries != 0 {
		t.Errorf("healthy Degrade recorded resilience events: %+v", goldenOf(dg))
	}
	// The rendered table keeps the pre-resilience layout: no resilience rows
	// appear on a healthy run (wall-clock cells differ run to run, so the
	// check is structural, not byte comparison across runs).
	for _, table := range []string{scamv.FormatTable(ff), scamv.FormatTable(dg)} {
		for _, row := range []string{"Skipped tests", "Quarantined", "Retries", "Timeouts"} {
			if strings.Contains(table, row) {
				t.Errorf("healthy table grew a %q row:\n%s", row, table)
			}
		}
	}
}

// TestCancelDuringChaosHangDoesNotLeak cancels a campaign wedged on
// unbounded injected hangs and checks every pipeline goroutine exits: the
// platform must take the ctx.Done arm, and the engine must unwind rather
// than wait for an execution that never returns.
func TestCancelDuringChaosHangDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	u, _ := scamv.MPartExperiments(false, 4, 6, 2021)
	u.Repeats = 2
	u.Parallel = 4
	// Every call hangs until cancellation: the campaign cannot progress.
	u.Platform = faultinject.New(nil, faultinject.Profile{Name: "wedge", HangProb: 1}, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := scamv.RunContext(ctx, u)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged campaign completed successfully")
		}
		if !errors.Is(err, context.Canceled) {
			t.Logf("campaign error after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not return after cancel")
	}

	leaked := true
	var after int
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
		if after <= before {
			leaked = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leaked {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked after cancel: before=%d after=%d\n%s", before, after, buf[:n])
	}
}

// startRecorder is the simulator, recording which programs reached Execute.
type startRecorder struct {
	mu      sync.Mutex
	started map[int]bool
}

func (s *startRecorder) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	s.mu.Lock()
	s.started[programIndex(prog.Name)] = true
	s.mu.Unlock()
	return scamv.SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
}

// TestRunAbortsOnAppendFailure: an experiment-log or journal append failing
// mid-campaign (an injected ENOSPC) aborts the run with that error, starts
// no further programs, and leaves no goroutine behind.
func TestRunAbortsOnAppendFailure(t *testing.T) {
	const programs = 48
	for _, tc := range []struct {
		name string
		arm  func(t *testing.T, e *scamv.Experiment)
	}{
		// The log buffers 4 KiB before its first write reaches the file, so
		// the fault lands a few programs in.
		{"log", func(t *testing.T, e *scamv.Experiment) {
			fs := faultinject.NewFaultFS(nil, faultinject.FSPlan{FailWriteAt: 1})
			f, err := fs.Create(filepath.Join(t.TempDir(), "log.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			e.Log = logdb.NewWriter(f)
			t.Cleanup(func() { e.Log.Close() })
		}},
		// Write 1 is the journal header; write 4 appends the third program.
		{"journal", func(t *testing.T, e *scamv.Experiment) {
			fs := faultinject.NewFaultFS(nil, faultinject.FSPlan{FailWriteAt: 4})
			j, err := journal.Open(t.TempDir(), e.Name, journal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			e.Journal = j
			t.Cleanup(func() { j.Close() })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e, _ := scamv.MPartExperiments(false, programs, 4, 2021)
			e.Repeats = 1
			e.Parallel = 4
			rec := &startRecorder{started: map[int]bool{}}
			e.Platform = rec
			tc.arm(t, &e)
			if _, err := scamv.Run(e); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("err = %v, want the injected ENOSPC", err)
			}
			rec.mu.Lock()
			started := len(rec.started)
			rec.mu.Unlock()
			if started == programs {
				t.Errorf("all %d programs started after the append failure", programs)
			}
			scamv.AssertNoGoroutinesLeft(t, before)
		})
	}
}
