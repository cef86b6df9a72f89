package scamv_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/journal"
)

// TestMain doubles as the crash child of the subprocess crash-safety tests:
// when SCAMV_CRASH_CHILD names a journal directory, the process runs one
// journaled campaign and exits instead of running the test suite — giving
// the parent test a real process to SIGKILL or SIGINT mid-campaign.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SCAMV_CRASH_CHILD"); dir != "" {
		os.Exit(crashChild(dir))
	}
	os.Exit(m.Run())
}

// crashChild runs the crash campaign with its journal in dir, resuming any
// prior state (a fresh directory degrades to a fresh start, so the same
// child serves first runs, post-kill resumes, and post-drain resumes).
// Exit codes mirror cmd/scamv: 0 complete, 3 drained (resumable), 1 error,
// 130 on a second interrupt. With SCAMV_CRASH_GATE=1 the child's platform is
// an admitGate reading admitFile in the campaign directory.
func crashChild(dir string) int {
	e := crashCampaign()
	if os.Getenv("SCAMV_CRASH_ARM") == "1" {
		e.Drain = scamv.ArmShutdown(nil, func() { os.Exit(130) })
	}
	j, err := journal.Open(dir, e.Name, journal.Options{Resume: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	e.Journal = j
	if os.Getenv("SCAMV_CRASH_GATE") == "1" {
		e.Platform = &admitGate{path: filepath.Join(j.Dir(), admitFile)}
	}
	r, err := scamv.Run(e)
	cerr := j.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		return 1
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "crash child:", cerr)
		return 1
	}
	if r.Drained {
		return 3
	}
	return 0
}

// admitFile names the file, in the campaign directory, that holds the number
// of programs a crash child's admitGate lets execute.
const admitFile = "admit"

// admitGate is a Platform that holds every program whose index is at or
// above the count in its admit file (all of them while the file is missing)
// until the parent raises the count. Programs below the count run and are
// journaled, so a signal sent once the journal holds that many records
// always lands mid-campaign, with programs left to run.
type admitGate struct {
	path string
}

func (g *admitGate) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	for p := programIndex(prog.Name); !g.admits(p); {
		select {
		case <-ctx.Done():
			return scamv.Measurement{}, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return scamv.SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
}

// admits reports whether program p is below the admit file's count. A
// missing or half-written file admits nothing yet.
func (g *admitGate) admits(p int) bool {
	b, err := os.ReadFile(g.path)
	if err != nil {
		return false
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	return err == nil && p < n
}

// programIndex parses the campaign index a template puts at the end of a
// program's name ("stride-12").
func programIndex(name string) int {
	n, err := strconv.Atoi(name[strings.LastIndex(name, "-")+1:])
	if err != nil {
		panic(fmt.Sprintf("program name %q carries no index", name))
	}
	return n
}

// admit sets the number of programs the crash child in campaign directory
// cdir may execute.
func admit(t *testing.T, cdir string, n int) {
	t.Helper()
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, admitFile), []byte(strconv.Itoa(n)), 0o644); err != nil {
		t.Fatal(err)
	}
}
