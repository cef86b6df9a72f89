package scamv_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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
// 130 on a second interrupt. With SCAMV_CRASH_GATE=1 the child runs at
// Parallel 1 behind a releaseGate whose release file is releaseFile in the
// campaign directory.
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
		// At Parallel 1 every stage has one worker, so programs reach
		// Execute in program order and the first program seen is program 0.
		e.Parallel = 1
		e.Platform = &releaseGate{release: filepath.Join(j.Dir(), releaseFile)}
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

// releaseFile names the file whose appearance in the campaign directory
// opens a crash child's releaseGate.
const releaseFile = "release"

// releaseGate is a Platform that runs the first program's Execute calls and
// holds every later program's until the release file exists. A signal sent
// once the journal holds a record then always lands mid-campaign: the
// campaign cannot finish before the parent lets it go.
type releaseGate struct {
	release  string
	released atomic.Bool
	mu       sync.Mutex
	first    string
}

func (g *releaseGate) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	g.mu.Lock()
	if g.first == "" {
		g.first = prog.Name
	}
	first := g.first == prog.Name
	g.mu.Unlock()
	for !first && !g.released.Load() {
		if _, err := os.Stat(g.release); err == nil {
			g.released.Store(true)
			break
		}
		select {
		case <-ctx.Done():
			return scamv.Measurement{}, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return scamv.SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
}
