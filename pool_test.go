package scamv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/gen"
	"scamv/internal/journal"
	"scamv/internal/logdb"
	"scamv/internal/obs"
	"scamv/internal/telemetry"
)

// hookPlatform runs hook before every simulated Execute call of program p
// (the index a template puts in the program name); a non-nil error from hook
// fails the call.
type hookPlatform struct {
	hook func(ctx context.Context, p int) error
}

func (h *hookPlatform) Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error) {
	if err := h.hook(ctx, progIndex(prog.Name)); err != nil {
		return Measurement{}, err
	}
	return SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
}

// panickyTemplate panics when asked for program at.
type panickyTemplate struct {
	gen.Template
	at int
}

func (p panickyTemplate) Generate(r *rand.Rand, idx int) *arm.Program {
	if idx == p.at {
		panic(fmt.Sprintf("template exploded at %d", idx))
	}
	return p.Template.Generate(r, idx)
}

// strideCampaign is a small Parallel 4 campaign whose programs are cheap.
func strideCampaign(programs int, plat Platform) Experiment {
	return Experiment{
		Name:            "pool",
		Template:        gen.Stride{},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone},
		Programs:        programs,
		TestsPerProgram: 4,
		Repeats:         1,
		Seed:            5,
		Platform:        plat,
		Parallel:        4,
	}
}

// assertNoGoroutinesLeft waits for the goroutine count to fall back to
// before, failing with a full dump if it does not.
func assertNoGoroutinesLeft(t *testing.T, before int) {
	t.Helper()
	var after int
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines left behind: before=%d after=%d\n%s", before, after, buf[:n])
}

// loggedPrograms returns the distinct program names of a log, in log order.
func loggedPrograms(t *testing.T, log *bytes.Buffer) []string {
	t.Helper()
	recs, torn, err := logdb.Read[logdb.Record](log, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range recs {
		if len(names) == 0 || names[len(names)-1] != r.Program {
			names = append(names, r.Program)
		}
	}
	return names
}

// progNames names the stride programs 0..n-1.
func progNames(n int) []string {
	var names []string
	for p := 0; p < n; p++ {
		names = append(names, fmt.Sprintf("stride-%d", p))
	}
	return names
}

// TestRunPanicsBecomeErrors: a panic in Template.Generate or in a program's
// Platform.Execute fails the campaign with an error naming the program, the
// panic value and the panicking stack, and the process survives. Panics
// follow the lowest-index rule like returned errors: the programs below the
// failing one are logged, and none at or above it.
func TestRunPanicsBecomeErrors(t *testing.T) {
	for _, tc := range []struct {
		name            string
		genAt, execAt   int
		wantProg        int
		wantPanicPrefix string
	}{
		{"generate", 3, -1, 3, "panic: template exploded at 3"},
		{"execute", -1, 2, 2, "panic: platform exploded at 2"},
		{"execute below generate", 5, 2, 2, "panic: platform exploded at 2"},
		{"generate below execute", 1, 3, 1, "panic: template exploded at 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			plat := &hookPlatform{hook: func(_ context.Context, p int) error {
				if p == tc.execAt {
					panic(fmt.Sprintf("platform exploded at %d", p))
				}
				return nil
			}}
			e := strideCampaign(8, plat)
			e.Template = panickyTemplate{Template: e.Template, at: tc.genAt}
			var buf bytes.Buffer
			db := logdb.NewWriter(&buf)
			e.Log = db
			_, err := Run(e)
			if err == nil {
				t.Fatal("campaign with a panicking program succeeded")
			}
			msg := err.Error()
			if want := fmt.Sprintf("scamv: program %d: %s\n", tc.wantProg, tc.wantPanicPrefix); !strings.HasPrefix(msg, want) {
				t.Fatalf("error %q does not start with %q", msg, want)
			}
			if !strings.Contains(msg, "goroutine ") || !strings.Contains(msg, "runtime/debug.Stack") {
				t.Errorf("error carries no stack:\n%s", msg)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := loggedPrograms(t, &buf), progNames(tc.wantProg); !reflect.DeepEqual(got, want) {
				t.Errorf("logged programs %v, want %v", got, want)
			}
			assertNoGoroutinesLeft(t, before)
		})
	}
}

// TestRunLowerFailingProgramWins: programs 1 and 2 fail, in either order,
// and the campaign reports program 1. Program 0, below the cutoff,
// completes and is logged; nothing at or above the cutoff is.
func TestRunLowerFailingProgramWins(t *testing.T) {
	for _, first := range []int{1, 2} {
		t.Run(fmt.Sprintf("program %d fails first", first), func(t *testing.T) {
			firstFailed := make(chan struct{})
			plat := &hookPlatform{hook: func(ctx context.Context, p int) error {
				switch {
				case p == first:
					close(firstFailed)
				case p == 1 || p == 2:
					select {
					case <-firstFailed:
						// Let the first failure reach the campaign loop, so
						// it sees the two in the order named; the outcome
						// must not depend on it.
						time.Sleep(20 * time.Millisecond)
					case <-ctx.Done():
					}
				default:
					return nil
				}
				return fmt.Errorf("injected failure for program %d", p)
			}}
			e := strideCampaign(12, plat)
			var buf bytes.Buffer
			db := logdb.NewWriter(&buf)
			e.Log = db
			_, err := Run(e)
			if err == nil || !strings.HasPrefix(err.Error(), "scamv: program 1: ") ||
				!strings.Contains(err.Error(), "injected failure for program 1") {
				t.Fatalf("err = %v, want program 1's failure", err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := loggedPrograms(t, &buf), progNames(1); !reflect.DeepEqual(got, want) {
				t.Errorf("logged programs %v, want %v", got, want)
			}
		})
	}
}

// timings matches the wall-clock fields of a log record.
var timings = regexp.MustCompile(`"(gen_us|exe_us)":[^,}]*,?`)

// untimed copies a Result with its wall-clock fields zeroed.
func untimed(r *Result) Result {
	out := *r
	out.GenTime, out.ExeTime, out.TTC = 0, 0, 0
	out.Matrix = slices.Clone(r.Matrix)
	for i := range out.Matrix {
		out.Matrix[i].ExeTime = 0
	}
	return out
}

// TestDeterminismAcrossSchedules runs one campaign under every combination
// of GOMAXPROCS {1, NumCPU}, Parallel {1, 4}, tracing, journaling and the
// a53/a72/m0 matrix: its log (minus timings) must be byte-identical, and its
// Result equal up to wall-clock fields, to the GOMAXPROCS 1, Parallel 1
// run with neither trace nor journal.
func TestDeterminismAcrossSchedules(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plats, err := PlatformsFromPresets("a53", "a72", "m0")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, matrix, traced, journaled bool, parallel int) (*Result, []byte) {
		_, e := MCtExperiments(gen.TemplateA{}, 5, 5, 11)
		e.Parallel = parallel
		if matrix {
			e.Platforms = plats
		}
		if traced {
			e.Trace = telemetry.New(io.Discard)
		}
		if journaled {
			j, err := journal.Open(t.TempDir(), e.Name, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			e.Journal = j
		}
		var buf bytes.Buffer
		db := logdb.NewWriter(&buf)
		e.Log = db
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return res, timings.ReplaceAll(buf.Bytes(), nil)
	}
	for _, matrix := range []bool{false, true} {
		var want *Result
		var wantLog []byte
		for _, procs := range []int{1, runtime.NumCPU()} {
			for _, parallel := range []int{1, 4} {
				for _, traced := range []bool{false, true} {
					for _, journaled := range []bool{false, true} {
						name := fmt.Sprintf("matrix=%v/procs=%d/parallel=%d/trace=%v/journal=%v",
							matrix, procs, parallel, traced, journaled)
						runtime.GOMAXPROCS(procs)
						res, log := run(t, matrix, traced, journaled, parallel)
						if want == nil {
							// The first combination is the plain reference.
							if res.Experiments == 0 || !res.Found {
								t.Fatalf("%s: reference campaign is vacuous: %+v", name, res)
							}
							want, wantLog = res, log
							continue
						}
						if !bytes.Equal(log, wantLog) {
							t.Errorf("%s: log differs from the reference (%d vs %d bytes)", name, len(log), len(wantLog))
						}
						if got, w := untimed(res), untimed(want); !reflect.DeepEqual(got, w) {
							t.Errorf("%s: Result differs from the reference:\n got %+v\nwant %+v", name, got, w)
						}
					}
				}
			}
		}
	}
}
