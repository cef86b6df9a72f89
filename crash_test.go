// Crash-safety tests: resumed campaigns must reproduce an uninterrupted
// run's Result exactly (modulo wall clock), whether the interruption was a
// graceful drain or a SIGKILL at a random point. Like chaos_test.go, these
// live in the external test package (internal/journal is shared with
// faultinject, which imports scamv).
//
// The subprocess tests re-exec this test binary as a crash child: TestMain
// sees SCAMV_CRASH_CHILD and runs one journaled campaign instead of the test
// suite, so the parent can kill -9 it mid-campaign and resume the pieces.
package scamv_test

import (
	"context"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/journal"
	"scamv/internal/logdb"
)

// resumeGolden strips a Result to the fields the resume-equivalence contract
// covers: every count, index, and verdict — everything except wall-clock
// durations, TTC, stage metrics, and the crash-safety bookkeeping itself.
type resumeGolden struct {
	Name                string
	Programs            int
	ProgramsWithCounter int
	Experiments         int
	Counterexamples     int
	Inconclusive        int
	EncodeFallbacks     int
	Queries             int
	Found               bool
	FirstCEProgram      int
	FirstCETest         int
	SkippedTests        int
	QuarantinedPrograms int
	Skips               []scamv.Skip
	Retries             int
	Timeouts            int
	ShapeHits           int64
	ShapeMisses         int64
	Matrix              []matrixGolden
}

type matrixGolden struct {
	Platform        string
	Experiments     int
	Counterexamples int
	Inconclusive    int
	SkippedTests    int
	Found           bool
	FirstCEProgram  int
	FirstCETest     int
}

func resumeGoldenOf(r *scamv.Result) resumeGolden {
	g := resumeGolden{
		Name:                r.Name,
		Programs:            r.Programs,
		ProgramsWithCounter: r.ProgramsWithCounter,
		Experiments:         r.Experiments,
		Counterexamples:     r.Counterexamples,
		Inconclusive:        r.Inconclusive,
		EncodeFallbacks:     r.EncodeFallbacks,
		Queries:             r.Queries,
		Found:               r.Found,
		FirstCEProgram:      r.FirstCEProgram,
		FirstCETest:         r.FirstCETest,
		SkippedTests:        r.SkippedTests,
		QuarantinedPrograms: r.QuarantinedPrograms,
		Skips:               r.Skips,
		Retries:             r.Retries,
		Timeouts:            r.Timeouts,
		ShapeHits:           r.ShapeHits,
		ShapeMisses:         r.ShapeMisses,
	}
	for i := range r.Matrix {
		m := &r.Matrix[i]
		g.Matrix = append(g.Matrix, matrixGolden{
			Platform:        m.Platform,
			Experiments:     m.Experiments,
			Counterexamples: m.Counterexamples,
			Inconclusive:    m.Inconclusive,
			SkippedTests:    m.SkippedTests,
			Found:           m.Found,
			FirstCEProgram:  m.FirstCEProgram,
			FirstCETest:     m.FirstCETest,
		})
	}
	return g
}

// crashCampaign is the shared campaign under test: small enough for CI,
// with the acceptance features on — platform matrix, portfolio solving, and
// the campaign shape cache — on either engine. One program larger than the
// staged pipeline's in-flight capacity (scamv.StageCapacity: 35 programs at
// Parallel 4), so a drain or kill lands while the staged engine still has
// unproduced programs.
func crashCampaign(monolithic bool) scamv.Experiment {
	u, _ := scamv.MPartExperiments(false, 24, 5, 2021)
	u.Repeats = 2
	u.Parallel = 4
	u.Programs = scamv.StageCapacity(&u) + 1
	u.Monolithic = monolithic
	u.Portfolio = 2
	u.SharedCache = true
	plats, err := scamv.PlatformsFromPresets("a53", "a72")
	if err != nil {
		panic(err)
	}
	u.Platforms = plats
	return u
}

// drainAfter is a Platform wrapper that closes a drain channel after n
// Execute calls — a deterministic-enough way to interrupt a campaign in
// flight without guessing timers.
type drainAfter struct {
	inner scamv.Platform
	n     int64
	count atomic.Int64
	once  sync.Once
	ch    chan struct{}
}

func newDrainAfter(inner scamv.Platform, n int64) *drainAfter {
	if inner == nil {
		inner = scamv.SimPlatform{}
	}
	return &drainAfter{inner: inner, n: n, ch: make(chan struct{})}
}

func (d *drainAfter) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	if d.count.Add(1) >= d.n {
		d.once.Do(func() { close(d.ch) })
	}
	return d.inner.Execute(ctx, e, prog, st, train, noise)
}

// mustRun runs a campaign and fails the test on error.
func mustRun(t *testing.T, e scamv.Experiment) *scamv.Result {
	t.Helper()
	r, err := scamv.Run(e)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

// loadLogNormalized loads a logdb file with the per-record wall-clock fields
// zeroed, so resumed and uninterrupted logs compare on content.
func loadLogNormalized(t *testing.T, path string) []logdb.Record {
	t.Helper()
	recs, err := logdb.Load(path)
	if err != nil {
		t.Fatalf("load log %s: %v", path, err)
	}
	for i := range recs {
		recs[i].GenMicros, recs[i].ExeMicros = 0, 0
	}
	return recs
}

// TestResumeEquivalence is the tentpole contract on both engines: interrupt
// a journaled campaign by a graceful drain partway through, resume it in a
// second "process" (a fresh journal open), and require the stitched Result —
// counts, matrix rows, skips, shape-cache totals — and the experiment log to
// equal an uninterrupted run's.
func TestResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mono bool
	}{{"staged", false}, {"monolithic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			// Uninterrupted reference, no journal.
			ref := crashCampaign(tc.mono)
			refLog := filepath.Join(dir, "ref.jsonl")
			db, err := logdb.Open(refLog)
			if err != nil {
				t.Fatal(err)
			}
			ref.Log = db
			want := resumeGoldenOf(mustRun(t, ref))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if want.Experiments == 0 || want.ShapeMisses == 0 || len(want.Matrix) != 2 {
				t.Fatalf("reference campaign is vacuous: %+v", want)
			}

			// Interrupted run: journal armed, drain after a handful of
			// platform executions.
			jdir := filepath.Join(dir, "state")
			e1 := crashCampaign(tc.mono)
			j1, err := journal.Open(jdir, e1.Name, journal.Options{Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			da := newDrainAfter(nil, 20)
			e1.Platform = da
			e1.Drain = da.ch
			e1.Journal = j1
			r1 := mustRun(t, e1)
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}
			if r1.Programs >= e1.Programs {
				t.Fatalf("drain did not interrupt: %d/%d programs completed", r1.Programs, e1.Programs)
			}
			if !r1.Drained {
				t.Fatalf("partial run not marked Drained: %+v", r1)
			}
			if r1.Checkpoints == 0 {
				t.Fatalf("no checkpoints written by the interrupted run")
			}

			// Resumed run: fresh journal open on the same state, fresh log.
			e2 := crashCampaign(tc.mono)
			j2, err := journal.Open(jdir, e2.Name, journal.Options{Resume: true, Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			resLog := filepath.Join(dir, "resumed.jsonl")
			db2, err := logdb.Open(resLog)
			if err != nil {
				t.Fatal(err)
			}
			e2.Journal = j2
			e2.Log = db2
			r2 := mustRun(t, e2)
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}

			if r2.RestoredPrograms != r1.Programs {
				t.Fatalf("resume restored %d programs, interrupted run completed %d",
					r2.RestoredPrograms, r1.Programs)
			}
			if r2.Drained {
				t.Fatalf("resumed run marked Drained: %+v", r2)
			}
			if got := resumeGoldenOf(r2); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed Result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
			if got, wantRecs := loadLogNormalized(t, resLog), loadLogNormalized(t, refLog); !reflect.DeepEqual(got, wantRecs) {
				t.Fatalf("resumed log differs from uninterrupted log: %d vs %d records", len(got), len(wantRecs))
			}
		})
	}
}

// TestResumeEquivalenceDegradeChaos runs the same contract under the heavy
// fault-injection profile with FailPolicy Degrade: skips, retries, and
// quarantines journal and resume like verdicts do. The injector's attempt
// counters are keyed by program identity, so a rebuilt injector reproduces
// the fault schedule for the non-restored suffix.
func TestResumeEquivalenceDegradeChaos(t *testing.T) {
	chaotic := func() scamv.Experiment {
		e := chaosExperiment(false)
		// Enough programs that the staged pipeline cannot absorb the whole
		// campaign in its stage buffers before the drain fires (see
		// crashCampaign for the same sizing argument; the buffers hold
		// roughly 20 items, so 20 was not enough).
		e.Programs = 40
		return e
	}

	want := resumeGoldenOf(mustRun(t, chaotic()))
	if want.SkippedTests == 0 && want.Retries == 0 {
		t.Fatalf("chaos campaign is vacuous: %+v", want)
	}

	jdir := t.TempDir()
	e1 := chaotic()
	j1, err := journal.Open(jdir, e1.Name, journal.Options{Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	da := newDrainAfter(e1.Platform, 15)
	e1.Platform = da
	e1.Drain = da.ch
	e1.Journal = j1
	r1 := mustRun(t, e1)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if r1.Programs >= e1.Programs {
		t.Fatalf("drain did not interrupt: %d/%d programs", r1.Programs, e1.Programs)
	}

	e2 := chaotic()
	j2, err := journal.Open(jdir, e2.Name, journal.Options{Resume: true, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2.Journal = j2
	r2 := mustRun(t, e2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := resumeGoldenOf(r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos resume differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}

// TestResumeFingerprintMismatch: resuming under a different configuration
// must fail loudly, not splice incompatible prefixes.
func TestResumeFingerprintMismatch(t *testing.T) {
	jdir := t.TempDir()
	e1 := crashCampaign(false)
	j1, err := journal.Open(jdir, e1.Name, journal.Options{Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	e1.Journal = j1
	mustRun(t, e1)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := crashCampaign(false)
	e2.Seed++ // count-affecting change
	j2, err := journal.Open(jdir, e2.Name, journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2.Journal = j2
	if _, err := scamv.Run(e2); err == nil {
		t.Fatalf("resume with a different seed succeeded; want fingerprint mismatch")
	}
}

// TestDrainBeforeStart: a drain signal that lands before the campaign begins
// yields an empty, Drained, resumable Result — not an error.
func TestDrainBeforeStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		mono bool
	}{{"staged", false}, {"monolithic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := crashCampaign(tc.mono)
			ch := make(chan struct{})
			close(ch)
			e.Drain = ch
			r := mustRun(t, e)
			if r.Programs != 0 || !r.Drained {
				t.Fatalf("got programs=%d drained=%v, want 0/true", r.Programs, r.Drained)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Subprocess crash children (see TestMain in main_crash_test.go).

// crashChildEnv builds the command that re-executes this test binary as a
// crash child running one journaled campaign in dir.
func crashChildCmd(dir string, mono, armSignals bool) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SCAMV_CRASH_CHILD="+dir)
	if mono {
		cmd.Env = append(cmd.Env, "SCAMV_CRASH_MONO=1")
	}
	if armSignals {
		cmd.Env = append(cmd.Env, "SCAMV_CRASH_ARM=1")
	}
	return cmd
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestCrashSIGKILLChaos is the kill-at-random-point proof on both engines:
// repeatedly start a journaled campaign in a subprocess, SIGKILL it after an
// escalating delay, and resume — the Result assembled across the carcasses
// must equal an uninterrupted in-process run's.
func TestCrashSIGKILLChaos(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess chaos loop skipped in -short")
	}
	for _, tc := range []struct {
		name string
		mono bool
	}{{"staged", false}, {"monolithic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			want := resumeGoldenOf(mustRun(t, crashCampaign(tc.mono)))

			dir := t.TempDir()
			delays := []time.Duration{
				20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond,
				90 * time.Millisecond, 140 * time.Millisecond, 220 * time.Millisecond,
				350 * time.Millisecond, 600 * time.Millisecond, time.Second,
			}
			completed := false
			for attempt := 0; attempt < len(delays)+1 && !completed; attempt++ {
				cmd := crashChildCmd(dir, tc.mono, false)
				if attempt < len(delays) {
					if err := cmd.Start(); err != nil {
						t.Fatal(err)
					}
					time.Sleep(delays[attempt])
					_ = cmd.Process.Kill() // SIGKILL; may race a clean exit
					code := exitCode(cmd.Wait())
					if code == 0 {
						completed = true
					}
					t.Logf("attempt %d: killed after %v (exit %d)", attempt, delays[attempt], code)
				} else {
					// Last attempt runs to completion.
					out, err := cmd.CombinedOutput()
					if err != nil {
						t.Fatalf("final resume run failed: %v\n%s", err, out)
					}
					completed = true
				}
			}

			// Verify the assembled journal in-process: a resume restores every
			// program and reproduces the uninterrupted Result.
			e := crashCampaign(tc.mono)
			j, err := journal.Open(dir, e.Name, journal.Options{Resume: true, Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			e.Journal = j
			r := mustRun(t, e)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if r.RestoredPrograms != e.Programs {
				t.Fatalf("journal restored %d/%d programs after chaos loop", r.RestoredPrograms, e.Programs)
			}
			if got := resumeGoldenOf(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-chaos Result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestGracefulSIGINT drives the two-signal shutdown protocol end to end in a
// subprocess: one SIGINT drains and exits with the resumable status code,
// and a subsequent resume completes the campaign with the uninterrupted
// Result.
func TestGracefulSIGINT(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess signal test skipped in -short")
	}
	want := resumeGoldenOf(mustRun(t, crashCampaign(false)))

	dir := t.TempDir()
	cmd := crashChildCmd(dir, false, true)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	code := exitCode(cmd.Wait())
	// 3 = drained partway (the interesting path); 0 = the campaign beat the
	// signal, which still exercises resume-of-complete below.
	if code != 3 && code != 0 {
		t.Fatalf("interrupted child exited %d, want 3 (drained) or 0 (completed)", code)
	}
	t.Logf("SIGINT child exited %d", code)

	out, err := crashChildCmd(dir, false, false).CombinedOutput()
	if err != nil {
		t.Fatalf("resume child failed: %v\n%s", err, out)
	}

	e := crashCampaign(false)
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Journal = j
	r := mustRun(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := resumeGoldenOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-SIGINT Result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}

// TestSecondSignalAborts: two rapid SIGINTs abort immediately with a
// non-zero exit, and the journal is still resumable afterwards (the
// checkpointed prefix survives the abort).
func TestSecondSignalAborts(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess signal test skipped in -short")
	}
	dir := t.TempDir()
	cmd := crashChildCmd(dir, false, true)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	_ = cmd.Process.Signal(syscall.SIGINT)
	time.Sleep(10 * time.Millisecond)
	_ = cmd.Process.Signal(syscall.SIGINT)
	code := exitCode(cmd.Wait())
	// 130 = second-signal abort; 3/0 mean the drain or campaign beat the
	// second signal — timing-dependent, and every outcome must leave the
	// journal resumable.
	if code != 130 && code != 3 && code != 0 {
		t.Fatalf("double-interrupted child exited %d, want 130, 3, or 0", code)
	}
	t.Logf("double-SIGINT child exited %d", code)

	e := crashCampaign(false)
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Journal = j
	r := mustRun(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Programs != e.Programs {
		t.Fatalf("resume after abort completed %d/%d programs", r.Programs, e.Programs)
	}
}
