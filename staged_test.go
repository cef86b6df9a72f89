package scamv

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"scamv/internal/gen"
	"scamv/internal/logdb"
)

// runLogged runs a campaign and returns its result plus the log records with
// the wall-clock fields zeroed: every test case in order, with its paths,
// class, verdict, and state diff — the deterministic witness of what the
// campaign generated and observed.
func runLogged(t *testing.T, e Experiment) (*Result, []logdb.Record) {
	t.Helper()
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
	recs, torn, err := logdb.Read[logdb.Record](&buf, nil)
	if err = errors.Join(err, torn); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].GenMicros, recs[i].ExeMicros = 0, 0
	}
	return res, recs
}

// TestStagedParallelGoldenMLine pins the golden MLine campaign
// (mlineCampaign, two programs) on the staged engine: sequential and with
// stage overlap at Parallel = 4, the campaigns must log the same test cases
// and verdicts in the same order, and both must reproduce the pinned counts.
func TestStagedParallelGoldenMLine(t *testing.T) {
	base := mlineCampaign()
	base.Programs = 2
	seq := base
	seq.Parallel = 1
	r1, log1 := runLogged(t, seq)
	par := base
	par.Parallel = 4
	r4, log4 := runLogged(t, par)
	if !reflect.DeepEqual(log1, log4) {
		t.Errorf("parallel 1 vs 4 campaign logs differ (%d vs %d records)", len(log1), len(log4))
	}
	for parallel, r := range map[int]*Result{1: r1, 4: r4} {
		got := [...]int{r.Programs, r.ProgramsWithCounter, r.Experiments, r.Counterexamples,
			r.Inconclusive, r.Queries, r.EncodeFallbacks, r.FirstCEProgram, r.FirstCETest}
		if want := [...]int{2, 2, 80, 51, 0, 708, 0, 0, 0}; got != want {
			t.Errorf("parallel=%d: [programs w/cex experiments cex inconcl queries fallbacks firstP firstT] = %v, want %v",
				parallel, got, want)
		}
	}
}

// TestRunContextCancelled: a cancelled context aborts the campaign with the
// context's error instead of a partial result.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, refined := MCtExperiments(gen.TemplateA{}, 8, 10, 11)
	if _, err := RunContext(ctx, refined); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNoiseSeedNoCollisions is the regression test for the additive
// noise-seed scheme: the old derivation seed^0x5eed + p*100000 + t*100
// collided exactly once TestsPerProgram reached 1000 ((p, t+1000) and
// (p+1, t) shared a seed); the splitmix64 derivation must keep every
// (program, test) stream distinct across a realistic campaign envelope.
func TestNoiseSeedNoCollisions(t *testing.T) {
	const seed, programs, tests = 2021, 128, 2048
	oldScheme := func(p, t int) int64 { return seed ^ 0x5eed + int64(p)*100000 + int64(t)*100 }
	if oldScheme(0, 1000) != oldScheme(1, 0) {
		t.Fatal("collision premise gone: the old scheme should collide at t=1000")
	}
	seen := make(map[int64][2]int, programs*tests)
	for p := 0; p < programs; p++ {
		for tc := 0; tc < tests; tc++ {
			s := noiseSeed(seed, p, tc)
			if prev, dup := seen[s]; dup {
				t.Fatalf("noiseSeed collision: (p%d,t%d) and (p%d,t%d) share %#x",
					prev[0], prev[1], p, tc, s)
			}
			seen[s] = [2]int{p, tc}
		}
	}
	// Repetition offsets (±2*Repeats around the base) must not alias the
	// base seeds of neighbouring tests either.
	for tc := 0; tc < 100; tc++ {
		base := noiseSeed(seed, 0, tc)
		for rep := int64(1); rep <= 20; rep++ {
			if _, dup := seen[base+rep]; dup {
				t.Fatalf("repetition stream of t%d aliases another test's base seed", tc)
			}
		}
	}
}

// TestFirstCounterexampleDeterministic: the (program, test) index of the
// first counterexample must be identical across runs and Parallel settings,
// unlike the wall-clock TTC.
func TestFirstCounterexampleDeterministic(t *testing.T) {
	_, refined := MCtExperiments(gen.TemplateA{}, 6, 8, 17)
	seq, err := Run(refined)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Found {
		t.Fatal("refined Template A campaign must find a counterexample")
	}
	par := refined
	par.Parallel = 4
	pr, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if seq.FirstCEProgram != pr.FirstCEProgram || seq.FirstCETest != pr.FirstCETest {
		t.Errorf("first-counterexample index not deterministic: p%d/t%d vs p%d/t%d",
			seq.FirstCEProgram, seq.FirstCETest, pr.FirstCEProgram, pr.FirstCETest)
	}
	if seq.FirstCEProgram < 0 || seq.FirstCETest < 0 {
		t.Errorf("found campaign must have a non-negative index, got p%d/t%d",
			seq.FirstCEProgram, seq.FirstCETest)
	}
	if !strings.Contains(seq.Summary(), "first counterexample at p") {
		t.Errorf("summary missing the index: %s", seq.Summary())
	}
	// Unfound campaigns render "-" instead of an index.
	unfound := &Result{FirstCEProgram: -1, FirstCETest: -1}
	if strings.Contains(FormatTable(unfound), "p-1") {
		t.Error("unfound campaign must render '-' for the first-c.e. cell")
	}
}
