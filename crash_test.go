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
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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
	"scamv/internal/telemetry"
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
// with the platform matrix on, and long enough (36 programs at Parallel 4)
// that a drain or kill lands while programs are still to be generated.
func crashCampaign() scamv.Experiment {
	u, _ := scamv.MPartExperiments(false, 24, 5, 2021)
	u.Repeats = 2
	u.Parallel = 4
	u.Programs = 36
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
	recs, torn, err := logdb.Load[logdb.Record](path, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatalf("load log %s: %v", path, err)
	}
	for i := range recs {
		recs[i].GenMicros, recs[i].ExeMicros = 0, 0
	}
	return recs
}

// TestResumeEquivalence is the crash-safety contract: interrupt
// a journaled campaign by a graceful drain partway through, resume it in a
// second "process" (a fresh journal open), and require the stitched Result —
// counts, matrix rows, skips — and the experiment log to
// equal an uninterrupted run's. The subtest keeps the name of the engine it
// was written for.
func TestResumeEquivalence(t *testing.T) {
	t.Run("staged", func(t *testing.T) { testResumeEquivalence(t, nil) })
}

// TestResumeFromJournalAlone: the interrupted run leaves one artifact, its
// journal, and that alone restores its prefix: the stitched Result and log
// equal the uninterrupted run's.
func TestResumeFromJournalAlone(t *testing.T) {
	testResumeEquivalence(t, func(t *testing.T, cdir string) {
		ents, err := os.ReadDir(cdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "journal.jsonl" {
			t.Fatalf("interrupted campaign's directory holds %v, want journal.jsonl alone", ents)
		}
	})
}

// testResumeEquivalence runs the drain-and-resume contract; beforeResume,
// when non-nil, is given the interrupted campaign's journal directory
// between the two runs.
func testResumeEquivalence(t *testing.T, beforeResume func(t *testing.T, cdir string)) {
	dir := t.TempDir()

	// Uninterrupted reference, no journal.
	ref := crashCampaign()
	refLog := filepath.Join(dir, "ref.jsonl")
	db, err := logdb.Create(refLog)
	if err != nil {
		t.Fatal(err)
	}
	ref.Log = db
	want := resumeGoldenOf(mustRun(t, ref))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Experiments == 0 || len(want.Matrix) != 2 {
		t.Fatalf("reference campaign is vacuous: %+v", want)
	}

	// Interrupted run: journal armed, drain after a handful of
	// platform executions.
	jdir := filepath.Join(dir, "state")
	e1 := crashCampaign()
	j1, err := journal.Open(jdir, e1.Name, journal.Options{})
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
	jr, err := journal.Open(jdir, e1.Name, journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(jr.Restored()); n != r1.Programs {
		t.Fatalf("interrupted run's journal restores %d programs, want %d", n, r1.Programs)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if beforeResume != nil {
		beforeResume(t, filepath.Join(jdir, journal.Sanitize(e1.Name)))
	}

	// Resumed run: fresh journal open on the same state, fresh log.
	e2 := crashCampaign()
	j2, err := journal.Open(jdir, e2.Name, journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	resLog := filepath.Join(dir, "resumed.jsonl")
	db2, err := logdb.Create(resLog)
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
}

// TestResumeEquivalenceDegradeChaos runs the same contract under the heavy
// fault-injection profile with FailPolicy Degrade: skips, retries, and
// quarantines journal and resume like verdicts do. The injector's attempt
// counters are keyed by program identity, so a rebuilt injector reproduces
// the fault schedule for the non-restored suffix.
func TestResumeEquivalenceDegradeChaos(t *testing.T) {
	chaotic := func() scamv.Experiment {
		e := chaosExperiment(4)
		// Enough programs that the drain, after 15 executions, lands with
		// programs still to be generated.
		e.Programs = 40
		return e
	}

	want := resumeGoldenOf(mustRun(t, chaotic()))
	if want.SkippedTests == 0 && want.Retries == 0 {
		t.Fatalf("chaos campaign is vacuous: %+v", want)
	}

	jdir := t.TempDir()
	e1 := chaotic()
	j1, err := journal.Open(jdir, e1.Name, journal.Options{})
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
	j2, err := journal.Open(jdir, e2.Name, journal.Options{Resume: true})
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
	e1 := crashCampaign()
	j1, err := journal.Open(jdir, e1.Name, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1.Journal = j1
	mustRun(t, e1)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// refused resumes e from jdir and requires the fingerprint mismatch
	// error, returning its text.
	refused := func(e scamv.Experiment, what string) string {
		t.Helper()
		j, err := journal.Open(jdir, e.Name, journal.Options{Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		e.Journal = j
		_, err = scamv.Run(e)
		if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Fatalf("resume %s: err = %v; want fingerprint mismatch", what, err)
		}
		return err.Error()
	}

	e2 := crashCampaign()
	e2.Seed++ // count-affecting change
	refused(e2, "with a different seed")

	// A journal written while the campaign shape cache existed carries
	// "shared_cache":false in its fingerprint. Restamp this one's header that
	// way: the unchanged configuration must still refuse it.
	path := filepath.Join(jdir, journal.Sanitize(e1.Name), "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.ReplaceAll(data, []byte(`,\"fail_policy\":`), []byte(`,\"shared_cache\":false,\"fail_policy\":`))
	if bytes.Equal(legacy, data) {
		t.Fatalf("no fingerprint to restamp in %s", path)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := refused(crashCampaign(), "of a pre-deletion journal"); !strings.Contains(msg, `"shared_cache":false`) {
		t.Fatalf("mismatch error does not show the legacy fingerprint:\n%s", msg)
	}
}

// TestDrainBeforeStart: a drain signal that lands before the campaign begins
// yields an empty, Drained, resumable Result — not an error.
func TestDrainBeforeStart(t *testing.T) {
	t.Run("staged", testDrainBeforeStart)
}

func testDrainBeforeStart(t *testing.T) {
	e := crashCampaign()
	ch := make(chan struct{})
	close(ch)
	e.Drain = ch
	r := mustRun(t, e)
	if r.Programs != 0 || !r.Drained {
		t.Fatalf("got programs=%d drained=%v, want 0/true", r.Programs, r.Drained)
	}
}

// ---------------------------------------------------------------------------
// Subprocess crash children (see TestMain in main_crash_test.go).

// crashChildEnv builds the command that re-executes this test binary as a
// crash child running one journaled campaign in dir.
func crashChildCmd(dir string, armSignals bool) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SCAMV_CRASH_CHILD="+dir)
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

// TestCrashSIGKILLChaos is the kill-mid-campaign proof: repeatedly start a
// journaled campaign in a subprocess, SIGKILL it, and resume — the Result
// assembled across the carcasses must equal an uninterrupted in-process
// run's. The child runs behind an admitGate: before attempt n the parent
// admits n programs, waits until the journal holds n records and kills the
// child while the programs above n are held, so every kill interrupts a
// campaign with programs left. The subtest keeps the name of the engine it
// was written for.
func TestCrashSIGKILLChaos(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess chaos loop skipped in -short")
	}
	t.Run("staged", testCrashSIGKILLChaos)
}

func testCrashSIGKILLChaos(t *testing.T) {
	want := resumeGoldenOf(mustRun(t, crashCampaign()))

	dir := t.TempDir()
	cdir := filepath.Join(dir, journal.Sanitize(crashCampaign().Name))
	const kills = 9
	for n := 1; n <= kills; n++ {
		admit(t, cdir, n)
		cmd, exited, stderr := startGatedChild(t, dir, false)
		awaitJournal(t, cdir, n, cmd, exited, stderr)
		_ = cmd.Process.Kill() // SIGKILL
		if code := exitCode(<-exited); code != -1 {
			t.Fatalf("attempt %d: child exited %d before the kill, want killed by the signal\n%s", n, code, stderr.Bytes())
		}
		if got := journalRecords(t, filepath.Join(cdir, "journal.jsonl")); got != n {
			t.Fatalf("attempt %d: journal holds %d records after the kill, want %d", n, got, n)
		}
		t.Logf("attempt %d: killed with %d of %d programs journaled", n, n, crashCampaign().Programs)
	}
	tracedResumeAfterKills(t, dir, kills)
	// Last attempt runs to completion.
	admit(t, cdir, crashCampaign().Programs)
	cmd := crashChildCmd(dir, false)
	cmd.Env = append(cmd.Env, "SCAMV_CRASH_GATE=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("final resume run failed: %v\n%s", err, out)
	}

	// Verify the assembled journal in-process: a resume restores every
	// program and reproduces the uninterrupted Result.
	e := crashCampaign()
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true})
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
}

// tracedResumeAfterKills resumes a copy of the killed campaign's directory
// in-process with a trace: the trace must announce exactly the journaled
// prefix as resumed, generate only the programs above it, and replay to
// the live counters.
func tracedResumeAfterKills(t *testing.T, dir string, journaled int) {
	t.Helper()
	e := crashCampaign()
	src := filepath.Join(dir, journal.Sanitize(e.Name))
	root := t.TempDir()
	dst := filepath.Join(root, journal.Sanitize(e.Name))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j, err := journal.Open(root, e.Name, journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	e.Journal = j
	e.Trace = tr
	mustRun(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := logdb.Read(&buf, telemetry.CheckRecord)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}

	var resumes []telemetry.Record
	generated := make(map[int]int)
	for _, r := range recs {
		switch {
		case r.Kind == "resume":
			resumes = append(resumes, r)
		case r.Kind == "span" && r.Stage == "proggen":
			generated[r.Prog]++
		}
	}
	if len(resumes) != 1 || resumes[0].Programs != journaled {
		t.Errorf("traced resume: resume records %+v, want one with Programs = %d", resumes, journaled)
	}
	want := make(map[int]int)
	for p := journaled; p < e.Programs; p++ {
		want[p] = 1
	}
	if !reflect.DeepEqual(generated, want) {
		t.Errorf("traced resume: proggen spans per program %v, want one each for programs %d..%d only", generated, journaled, e.Programs-1)
	}
	scamv.AssertReplayMatchesLive(t, recs, tr.Snapshot())
}

// startGatedChild starts a crash child behind its admitGate, returning the
// command, a channel that receives its Wait result, and its stderr.
func startGatedChild(t *testing.T, dir string, armSignals bool) (*exec.Cmd, <-chan error, *bytes.Buffer) {
	t.Helper()
	cmd := crashChildCmd(dir, armSignals)
	cmd.Env = append(cmd.Env, "SCAMV_CRASH_GATE=1")
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	return cmd, exited, stderr
}

// awaitJournal polls the campaign's journal until it holds n program
// records, failing the test if the child exits first or two minutes pass.
func awaitJournal(t *testing.T, cdir string, n int, cmd *exec.Cmd, exited <-chan error, stderr *bytes.Buffer) {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for journalRecords(t, filepath.Join(cdir, "journal.jsonl")) < n {
		select {
		case err := <-exited:
			t.Fatalf("child exited %d before journaling %d programs\n%s", exitCode(err), n, stderr.Bytes())
		case <-deadline:
			_ = cmd.Process.Kill()
			t.Fatalf("child journaled fewer than %d programs within 2 minutes", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestGracefulSIGINT drives the two-signal shutdown protocol end to end in a
// subprocess: one SIGINT drains and exits with the resumable status code,
// and a subsequent resume completes the campaign with the uninterrupted
// Result. The child's admitGate admits only the first program until the
// parent, having seen its journal record and sent the signal, admits them
// all, so the signal always lands mid-campaign.
func TestGracefulSIGINT(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess signal test skipped in -short")
	}
	want := resumeGoldenOf(mustRun(t, crashCampaign()))

	dir := t.TempDir()
	cdir := filepath.Join(dir, journal.Sanitize(crashCampaign().Name))
	admit(t, cdir, 1)
	cmd, exited, stderr := startGatedChild(t, dir, true)
	awaitJournal(t, cdir, 1, cmd, exited, stderr)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	admit(t, cdir, crashCampaign().Programs)
	if code := exitCode(<-exited); code != 3 {
		t.Fatalf("interrupted child exited %d, want 3 (drained)\n%s", code, stderr.Bytes())
	}
	t.Logf("SIGINT child drained after journaling %d of %d programs",
		journalRecords(t, filepath.Join(cdir, "journal.jsonl")), crashCampaign().Programs)

	out, err := crashChildCmd(dir, false).CombinedOutput()
	if err != nil {
		t.Fatalf("resume child failed: %v\n%s", err, out)
	}

	e := crashCampaign()
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true})
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

// journalRecords counts the complete program records in a journal file; a
// missing file holds none.
func journalRecords(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.HasSuffix(line, []byte("\n")) && bytes.Contains(line, []byte(`"kind":"program"`)) {
			n++
		}
	}
	return n
}

// TestSecondSignalAborts: two rapid SIGINTs abort immediately with a
// non-zero exit, and the journal is still resumable afterwards (the
// journaled prefix survives the abort).
func TestSecondSignalAborts(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	if testing.Short() {
		t.Skip("subprocess signal test skipped in -short")
	}
	dir := t.TempDir()
	cmd := crashChildCmd(dir, true)
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

	e := crashCampaign()
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true})
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
