package scamv

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/gen"
	"scamv/internal/micro"
	"scamv/internal/obs"
)

// TestWithDefaultsMergesMicro guards the field-wise merge: a partially-set
// Micro config must keep its explicit fields instead of being replaced
// wholesale by micro.DefaultConfig.
func TestWithDefaultsMergesMicro(t *testing.T) {
	cases := []struct {
		name string
		in   micro.Config
		want func(micro.Config) bool
	}{
		{"vartime survives", micro.Config{VarTimeMul: true},
			func(c micro.Config) bool { return c.VarTimeMul && c.Sets == 128 }},
		{"spec window survives", micro.Config{SpecWindow: 3},
			func(c micro.Config) bool { return c.SpecWindow == 3 && c.Ways == 4 }},
		{"no-speculation sentinel survives", micro.Config{SpecWindow: micro.NoSpeculation},
			func(c micro.Config) bool { return c.SpecWindow < 0 }},
		{"prefetch disabled survives", micro.Config{PrefetchDisabled: true},
			func(c micro.Config) bool { return c.PrefetchDisabled && c.PrefetchRun == 3 }},
		{"cycle costs survive", micro.Config{HitCycles: 2, MissCycles: 11, MispredictCycles: 5},
			func(c micro.Config) bool {
				return c.HitCycles == 2 && c.MissCycles == 11 && c.MispredictCycles == 5
			}},
		{"noise survives alongside other fields", micro.Config{NoiseProb: 0.125, VarTimeMul: true},
			func(c micro.Config) bool { return c.NoiseProb == 0.125 && c.VarTimeMul }},
	}
	for _, tc := range cases {
		e := Experiment{Micro: tc.in}
		if got := e.WithDefaults(); !tc.want(got.Micro) {
			t.Errorf("%s: got %+v", tc.name, got.Micro)
		}
	}
}

// failingPlatform errors on the programs whose generated index appears in
// fail, and otherwise delegates to the simulator. It records which program
// indexes actually started executing.
type failingPlatform struct {
	fail map[int]bool

	mu      sync.Mutex
	started map[int]bool
}

func progIndex(name string) int {
	i := strings.LastIndex(name, "-")
	var idx int
	fmt.Sscanf(name[i+1:], "%d", &idx)
	return idx
}

func (f *failingPlatform) Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error) {
	idx := progIndex(prog.Name)
	f.mu.Lock()
	if f.started == nil {
		f.started = map[int]bool{}
	}
	f.started[idx] = true
	f.mu.Unlock()
	if f.fail[idx] {
		return Measurement{}, fmt.Errorf("injected failure for program %d", idx)
	}
	return SimPlatform{}.Execute(ctx, e, prog, st, train, noise)
}

// TestRunParallelErrorDeterministicAndPrompt: with several workers and two
// erroring programs racing, Run must always report the lowest erroring
// program index and must not run the remaining programs to completion after
// the failure.
func TestRunParallelErrorDeterministicAndPrompt(t *testing.T) {
	const programs = 24
	for attempt := 0; attempt < 3; attempt++ {
		fp := &failingPlatform{fail: map[int]bool{2: true, 3: true, 20: true}}
		e := Experiment{
			Name:            "err-campaign",
			Template:        gen.Stride{},
			Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone},
			Programs:        programs,
			TestsPerProgram: 2,
			Repeats:         1,
			Seed:            5,
			Platform:        fp,
			Parallel:        4,
		}
		res, err := Run(e)
		if err == nil {
			t.Fatalf("attempt %d: expected error, got result %+v", attempt, res)
		}
		if !strings.Contains(err.Error(), "program 2") {
			t.Fatalf("attempt %d: error %q does not name the lowest erroring program", attempt, err)
		}
		// Prompt termination: the campaign must not have run every program.
		// Programs 0..3 start before the failure; draining may let a few
		// more through, but the tail (e.g. program 20+) must never start.
		fp.mu.Lock()
		ran := len(fp.started)
		late := fp.started[programs-1] && fp.started[20] && fp.started[15]
		fp.mu.Unlock()
		if ran == programs || late {
			t.Fatalf("attempt %d: %d/%d programs started after error", attempt, ran, programs)
		}
	}
}

// TestRunSequentialErrorStopsImmediately: with Parallel <= 1 the first
// erroring program aborts the campaign before any later program starts.
func TestRunSequentialErrorStopsImmediately(t *testing.T) {
	fp := &failingPlatform{fail: map[int]bool{1: true}}
	e := Experiment{
		Name:            "err-seq",
		Template:        gen.Stride{},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone},
		Programs:        6,
		TestsPerProgram: 1,
		Repeats:         1,
		Seed:            5,
		Platform:        fp,
	}
	if _, err := Run(e); err == nil {
		t.Fatal("expected error")
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for idx := range fp.started {
		if idx > 1 {
			t.Fatalf("program %d started after the sequential failure", idx)
		}
	}
}

// TestEncodeRoundTripConsistency: a consistent round trip substitutes the
// decoded program and counts no fallback.
func TestEncodeRoundTripConsistency(t *testing.T) {
	e := Experiment{
		Name:            "roundtrip",
		Template:        gen.Stride{},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone},
		Programs:        3,
		TestsPerProgram: 2,
		Repeats:         1,
		Seed:            5,
	}
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.EncodeFallbacks != 0 {
		t.Fatalf("stride programs round-trip cleanly, got %d fallbacks", res.EncodeFallbacks)
	}
}

// TestTrainingStatesSolveOncePerPath checks that a program's training states
// are solved once per test path, including a path with no feasible
// alternative: a straight-line program has one path, so its training state
// is missing, and every later test case on that path must reuse the miss.
func TestTrainingStatesSolveOncePerPath(t *testing.T) {
	straight := arm.NewProgram("straight")
	straight.Add(
		arm.Instr{Op: arm.LDRR, Rd: 1, Rn: 2, Rm: 3},
		arm.Instr{Op: arm.HLT},
	)
	for _, c := range []struct {
		prog        *arm.Program
		paths       []int
		wantSolves  int
		wantMissing bool
	}{
		{straight, []int{0, 0, 0, 0}, 1, true},
		{gen.TemplateA{}.Generate(rand.New(rand.NewSource(1)), 0), []int{0, 1, 0, 1, 1}, 2, false},
	} {
		pl, err := NewPipeline(c.prog, &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll})
		if err != nil {
			t.Fatal(err)
		}
		solves := 0
		ts := trainingStates{byPath: map[int]*core.State{}, solve: func(path int) (*core.State, bool) {
			solves++
			return pl.TrainingState(path, 1)
		}}
		for _, path := range c.paths {
			if st := ts.get(path); (st == nil) != c.wantMissing {
				t.Fatalf("%s path %d: training state %v, want missing %v", c.prog.Name, path, st, c.wantMissing)
			}
		}
		if solves != c.wantSolves {
			t.Errorf("%s: %d training-state solves for paths %v, want %d", c.prog.Name, solves, c.paths, c.wantSolves)
		}
	}
}
