package scamv

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/core"

	"scamv/internal/gen"
	"scamv/internal/logdb"
	"scamv/internal/micro"
	"scamv/internal/obs"
)

// Reduced-scale campaign shape tests: each asserts the qualitative outcome
// the paper reports for the corresponding Table 1 / Fig. 7 column. The
// benchmarks in bench_test.go run the same campaigns at larger scale.

func TestCampaignMPartShape(t *testing.T) {
	unguided, refined := MPartExperiments(false, 16, 40, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: prefetching violates cache partitioning; refinement finds many
	// more counterexamples than unguided search.
	if rr.Counterexamples == 0 {
		t.Error("refined M_part validation must expose the prefetcher leak")
	}
	if ru.Counterexamples >= rr.Counterexamples {
		t.Errorf("refinement should dominate: unguided %d vs refined %d",
			ru.Counterexamples, rr.Counterexamples)
	}
	if rr.ProgramsWithCounter == 0 {
		t.Error("some programs must have counterexamples")
	}
}

func TestCampaignMPartPageAlignedShape(t *testing.T) {
	unguided, refined := MPartExperiments(true, 10, 40, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: prefetching stops at the page boundary, so the page-aligned
	// partition shows no counterexamples with or without refinement.
	if ru.Counterexamples != 0 || rr.Counterexamples != 0 {
		t.Errorf("page-aligned partitioning should be tight: unguided %d, refined %d",
			ru.Counterexamples, rr.Counterexamples)
	}
}

func TestCampaignMCtTemplateAShape(t *testing.T) {
	unguided, refined := MCtExperiments(gen.TemplateA{}, 8, 25, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: the refined model exposes SiSCloak on virtually every program;
	// unguided testing finds at most a rare aliased subclass.
	if rr.ProgramsWithCounter < rr.Programs/2 {
		t.Errorf("refinement should invalidate most programs: %d/%d",
			rr.ProgramsWithCounter, rr.Programs)
	}
	if ru.Counterexamples*10 > rr.Counterexamples {
		t.Errorf("refined counterexamples should dominate: %d vs %d",
			ru.Counterexamples, rr.Counterexamples)
	}
	if rr.Found && ru.Found && rr.TTC > ru.TTC {
		t.Error("refinement should find the first counterexample faster")
	}
}

func TestCampaignMCtTemplateBShape(t *testing.T) {
	unguided, refined := MCtExperiments(gen.TemplateB{}, 10, 20, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: without refinement no counterexamples at all for Template B.
	if ru.Counterexamples != 0 {
		t.Errorf("unguided Template B should find nothing, found %d", ru.Counterexamples)
	}
	if rr.Counterexamples == 0 || rr.ProgramsWithCounter == 0 {
		t.Error("refined Template B must find counterexamples")
	}
}

func TestCampaignFig7TemplateCShape(t *testing.T) {
	unguided, refined := MCtExperiments(gen.TemplateC{}, 3, 60, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// §6.5: M_ct on Template C is unsound (SiSCloak-class leak through the
	// first transient load), but only refinement can expose it.
	if ru.Counterexamples != 0 {
		t.Errorf("unguided Template C should find nothing, found %d", ru.Counterexamples)
	}
	if rr.Counterexamples == 0 {
		t.Error("refined Template C must find counterexamples")
	}
	// Roughly half of the refined experiments distinguish (the slot
	// coverage alternates between the issuing first load and the
	// taint-blocked second one). The artifact checklist says ~42%.
	frac := float64(rr.Counterexamples) / float64(rr.Experiments)
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("Template C counterexample fraction out of band: %.2f", frac)
	}
}

func TestCampaignMSpec1Shapes(t *testing.T) {
	// §6.5: M_spec1 is consistent with the hardware on Template C (the
	// dependent second load never issues: no Spectre-PHT on the A53) ...
	rc, err := Run(MSpec1Experiment(gen.TemplateC{}, 3, 60, 2021))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Counterexamples != 0 {
		t.Errorf("Mspec1 on Template C should be consistent, found %d", rc.Counterexamples)
	}
	// ... but NOT on Template B: two causally independent loads both issue.
	rb, err := Run(MSpec1Experiment(gen.TemplateB{}, 10, 20, 2021))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Counterexamples == 0 {
		t.Error("Mspec1 on Template B must be invalidated (independent double loads)")
	}
}

func TestCampaignStraightLineShape(t *testing.T) {
	r, err := Run(StraightLineExperiment(8, 40, 2021))
	if err != nil {
		t.Fatal(err)
	}
	// §6.5: no straight-line speculation after unconditional direct
	// branches on the modelled core.
	if r.Counterexamples != 0 {
		t.Errorf("straight-line speculation counterexamples on a core without it: %d", r.Counterexamples)
	}
	if r.Experiments == 0 {
		t.Error("the campaign must still generate and execute experiments")
	}
}

func TestRepairConvergesTemplateC(t *testing.T) {
	base := Experiment{
		Name:            "repair-C",
		Template:        gen.TemplateC{},
		Programs:        2,
		TestsPerProgram: 30,
		Seed:            7,
	}
	rep, err := RepairModel(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Validated {
		t.Fatalf("repair did not converge:\n%s", rep)
	}
	// Template C: the first transient load leaks (K=0 invalid), the
	// dependent second never issues, so K=1 (M_spec1) suffices.
	if rep.FinalK != 1 {
		t.Errorf("expected repair to converge at K=1, got %d:\n%s", rep.FinalK, rep)
	}
	if rep.Steps[0].Result.Counterexamples == 0 {
		t.Error("K=0 (plain M_ct) must be invalidated during repair")
	}
}

func TestRepairConvergesTemplateB(t *testing.T) {
	base := Experiment{
		Name:            "repair-B",
		Template:        gen.TemplateB{},
		Programs:        6,
		TestsPerProgram: 20,
		Seed:            7,
	}
	rep, err := RepairModel(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Validated {
		t.Fatalf("repair did not converge:\n%s", rep)
	}
	// Template B bodies have up to two independent loads, both of which
	// issue transiently: repair must include both (K=2).
	if rep.FinalK != 2 {
		t.Errorf("expected repair to converge at K=2, got %d:\n%s", rep.FinalK, rep)
	}
}

func TestPipelineSingleProgram(t *testing.T) {
	pl, err := NewPipeline(gen.SiSCloak1(), &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Paths) != 2 {
		t.Fatalf("paths: %d", len(pl.Paths))
	}
	for _, want := range []string{"x0", "x1", "x2", "x5", "x7"} {
		found := false
		for _, r := range pl.Registers {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("register %s missing from %v", want, pl.Registers)
		}
	}
	e := Experiment{Speculative: true, Refined: true, Seed: 1}
	en := e.WithDefaults()
	g := pl.Generator(&en, 3)
	tc, ok := g.Next()
	if !ok {
		t.Fatal("no test case for the SiSCloak program")
	}
	train, ok := pl.TrainingState(tc.PathA, 3)
	if !ok {
		t.Fatal("no training state")
	}
	v, err := pl.ExecuteTestCase(&en, tc, train, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v != Counterexample {
		t.Errorf("the Fig. 6 SiSCloak program should yield a counterexample, got %v", v)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	_, refined := MCtExperiments(gen.TemplateA{}, 3, 10, 99)
	r1, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counterexamples != r2.Counterexamples || r1.Experiments != r2.Experiments ||
		r1.Inconclusive != r2.Inconclusive {
		t.Errorf("non-deterministic campaign: %+v vs %+v", r1, r2)
	}
}

func TestRunWritesLog(t *testing.T) {
	var buf bytes.Buffer
	db := logdb.NewWriter(&buf)
	_, refined := MCtExperiments(gen.TemplateA{}, 2, 5, 3)
	refined.Log = db
	res, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := logdb.Read[logdb.Record](&buf, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Experiments {
		t.Fatalf("log records %d != experiments %d", len(recs), res.Experiments)
	}
	counter := 0
	for _, r := range recs {
		if r.Verdict == "counterexample" {
			counter++
		}
	}
	if counter != res.Counterexamples {
		t.Errorf("log counterexamples %d != result %d", counter, res.Counterexamples)
	}
}

func TestFormatTable(t *testing.T) {
	r := &Result{
		Name: "x", Model: "Mct", Refinement: "Mspec", Coverage: "Mpc",
		Programs: 10, ProgramsWithCounter: 5, Experiments: 100,
		Counterexamples: 50, Inconclusive: 2, Found: true,
	}
	out := FormatTable(r, r)
	for _, want := range []string{"Mct", "Mspec", "Prog. w. Count.", "T.T.C."} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(r.Summary(), "50 counterexamples") {
		t.Errorf("summary: %s", r.Summary())
	}
}

func TestWithDefaults(t *testing.T) {
	e := Experiment{}
	d := e.WithDefaults()
	if d.Repeats != 10 || d.TrainRuns != 4 || d.Micro.Sets == 0 || d.AttackerView == nil {
		t.Errorf("defaults not applied: %+v", d)
	}
	// Noise survives defaulting.
	e2 := Experiment{Micro: micro.Config{NoiseProb: 0.5}}
	if d2 := e2.WithDefaults(); d2.Micro.NoiseProb != 0.5 || d2.Micro.Sets == 0 {
		t.Errorf("noise lost: %+v", d2.Micro)
	}
}

func TestVerdictString(t *testing.T) {
	if Indistinguishable.String() != "indistinguishable" ||
		Counterexample.String() != "counterexample" ||
		Inconclusive.String() != "inconclusive" {
		t.Error("verdict strings")
	}
	// Out-of-range values must render diagnosably, not panic or alias a
	// real verdict (they can appear when decoding a corrupted log).
	if got := Verdict(42).String(); got != "verdict(42)" {
		t.Errorf("out-of-range verdict: %q", got)
	}
	if got := Verdict(-1).String(); got != "verdict(-1)" {
		t.Errorf("negative verdict: %q", got)
	}
}

func TestCampaignMTimeShape(t *testing.T) {
	unguided, refined := MTimeExperiments(6, 15, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	// The §3 illustration: multiply operands are unobserved by M_ct, so
	// unguided minimal-model pairs never differ in multiplier size class,
	// while the refined model forces a class difference — and the
	// early-terminating multiplier turns it into a timing counterexample.
	if ru.Counterexamples != 0 {
		t.Errorf("unguided timing campaign found %d", ru.Counterexamples)
	}
	if rr.Counterexamples == 0 {
		t.Error("refined timing campaign must expose the variable-time multiplier")
	}
	// Without the timing attacker the channel is invisible: cache states
	// are identical.
	noTimer := refined
	noTimer.TimingAttacker = false
	rn, err := Run(noTimer)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Counterexamples != 0 {
		t.Errorf("cache-only attacker cannot see the timing channel, found %d", rn.Counterexamples)
	}
	// On a constant-time multiplier core the model is sound.
	fixed := refined
	fixed.Micro.VarTimeMul = false
	rf, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Counterexamples != 0 {
		t.Errorf("constant-time multiplier cannot leak, found %d", rf.Counterexamples)
	}
}

// constantTimePlatform wraps the simulator but hides the timing channel,
// standing in for a hypothetical core with a constant-time multiplier —
// exercising the Platform extension point.
type constantTimePlatform struct{ inner SimPlatform }

func (p constantTimePlatform) Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error) {
	m, err := p.inner.Execute(ctx, e, prog, st, train, noise)
	m.Cycles = 0
	return m, err
}

func TestCustomPlatform(t *testing.T) {
	_, refined := MTimeExperiments(4, 10, 5)
	refined.Platform = constantTimePlatform{}
	r, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counterexamples != 0 {
		t.Errorf("platform without a timing channel cannot leak, found %d", r.Counterexamples)
	}
	if r.Experiments == 0 {
		t.Error("experiments must still execute")
	}
}

func TestMeasurementDistinguishable(t *testing.T) {
	snapA := micro.NewCache(micro.DefaultConfig()).Snapshot(micro.FullView)
	c := micro.NewCache(micro.DefaultConfig())
	c.Access(0x40)
	snapB := c.Snapshot(micro.FullView)
	a := Measurement{Snapshot: snapA, Cycles: 10}
	b := Measurement{Snapshot: snapB, Cycles: 10}
	if !a.Distinguishable(b, false) {
		t.Error("different snapshots must distinguish")
	}
	sameSnapDiffTime := Measurement{Snapshot: snapA, Cycles: 11}
	if a.Distinguishable(sameSnapDiffTime, false) {
		t.Error("cache attacker must not see timing")
	}
	if !a.Distinguishable(sameSnapDiffTime, true) {
		t.Error("timing attacker must see timing")
	}
}

func TestGeneratorExhaustionStopsCampaign(t *testing.T) {
	// A program whose refined relation is unsatisfiable (no speculation
	// possible: straight-line, no branch) must yield zero experiments
	// without erroring.
	e := Experiment{
		Name:            "exhaust",
		Template:        fixedTemplate{prog: mustParse("movz x0, #1\nhlt")},
		Model:           &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll},
		Refined:         true,
		Programs:        1,
		TestsPerProgram: 5,
		Seed:            1,
	}
	r, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Experiments != 0 {
		t.Errorf("no refined test cases should exist, got %d experiments", r.Experiments)
	}
}

type fixedTemplate struct{ prog *arm.Program }

func (f fixedTemplate) Name() string                              { return f.prog.Name }
func (f fixedTemplate) Generate(_ *rand.Rand, _ int) *arm.Program { return f.prog }

func mustParse(src string) *arm.Program {
	p, err := arm.Parse("fixed", src)
	if err != nil {
		panic(err)
	}
	return p
}

func TestParallelMatchesSequential(t *testing.T) {
	_, refined := MCtExperiments(gen.TemplateB{}, 8, 15, 31)
	seq, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	par := refined
	par.Parallel = 4
	pr, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Experiments != pr.Experiments || seq.Counterexamples != pr.Counterexamples ||
		seq.Inconclusive != pr.Inconclusive || seq.ProgramsWithCounter != pr.ProgramsWithCounter {
		t.Errorf("parallel counts diverge:\nseq %+v\npar %+v", seq, pr)
	}
}

func TestParallelLogOrderDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	run := func(buf *bytes.Buffer, workers int) {
		db := logdb.NewWriter(buf)
		_, refined := MCtExperiments(gen.TemplateA{}, 6, 8, 17)
		refined.Log = db
		refined.Parallel = workers
		if _, err := Run(refined); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run(&b1, 1)
	run(&b2, 3)
	r1, torn, err := logdb.Read[logdb.Record](&b1, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	r2, torn, err := logdb.Read[logdb.Record](&b2, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		a.GenMicros, a.ExeMicros = 0, 0
		b.GenMicros, b.ExeMicros = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestCampaignMPCModelShape(t *testing.T) {
	// The program-counter security model abstracts control-flow timing but
	// is unsound against a cache attacker: refinement with cache-line
	// observations invalidates it on essentially every program with a load.
	unguided, refined := MPCModelExperiments(6, 15, 2021)
	ru, err := Run(unguided)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Counterexamples == 0 || rr.ProgramsWithCounter < rr.Programs/2 {
		t.Errorf("refined PC-model campaign too weak: %d cex, %d/%d programs",
			rr.Counterexamples, rr.ProgramsWithCounter, rr.Programs)
	}
	if ru.Counterexamples >= rr.Counterexamples {
		t.Errorf("refinement should dominate: %d vs %d", ru.Counterexamples, rr.Counterexamples)
	}
}

func TestRefinementNames(t *testing.T) {
	cases := []struct {
		e    Experiment
		want string
	}{
		{Experiment{Model: &obs.MPart{WithRefinement: true}, Refined: true}, "Mpart'"},
		{Experiment{Model: &obs.MPart{WithRefinement: true}, Refined: false}, "No"},
		{Experiment{Model: &obs.MCt{Spec: obs.SpecAll}, Refined: true}, "Mspec"},
		{Experiment{Model: &obs.MCt{Spec: obs.SpecStraightLine}, Refined: true}, "Mspec'"},
		{Experiment{Model: &obs.MTime{WithRefinement: true}, Refined: true}, "Mtime"},
		{Experiment{Model: &obs.MPCModel{WithRefinement: true}, Refined: true}, "Mct"},
	}
	for i, c := range cases {
		if got := refinementName(&c.e); got != c.want {
			t.Errorf("case %d: %q != %q", i, got, c.want)
		}
	}
}

func TestNewPipelineRejectsBadProgram(t *testing.T) {
	p := arm.NewProgram("bad")
	p.Add(arm.Instr{Op: arm.B, Label: "nowhere"})
	if _, err := NewPipeline(p, &obs.MCt{Geom: obs.DefaultGeometry}); err == nil {
		t.Fatal("expected error for unresolved branch")
	}
}

func TestIsArchReg(t *testing.T) {
	for name, want := range map[string]bool{
		"x0": true, "x30": true, "x": false, "y1": false,
		"_cca": false, "#x2": false, "x1a": false, "": false,
	} {
		if got := isArchReg(name); got != want {
			t.Errorf("isArchReg(%q) = %v", name, got)
		}
	}
}
