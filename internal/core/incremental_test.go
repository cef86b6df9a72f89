package core

import (
	"sort"
	"testing"

	"scamv/internal/bir"
	"scamv/internal/expr"
	"scamv/internal/gen"
	"scamv/internal/obs"
	"scamv/internal/smt"
	"scamv/internal/symexec"
)

// mlineConfig is the shared campaign of the incremental-solving tests: a
// refined MLine-support generator (128 coverage classes) over a branching
// template, i.e. the exact shape the shared-prefix solver reuse targets.
func mlineConfig(seed int64) (tpl gen.Template, m obs.ModelPair, cfg Config) {
	tpl = gen.Sequence{Parts: []gen.Template{gen.TemplateA{}, gen.TemplateA{}}}
	m = &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	cfg = Config{
		Seed:    seed,
		Refined: true,
		Support: obs.MLine{Geom: obs.DefaultGeometry},
	}
	return tpl, m, cfg
}

// TestStreamsSharePairSolver guards the incremental mechanism: every
// (path pair, class, slot) stream of one (path pair, slot) queries the same
// solver, so the generator builds exactly one solver per distinct pair key
// however many coverage classes it visits. On the MLine config that sharing
// is what makes generation cheap: each pair's relation is encoded once for
// all 128 classes.
func TestStreamsSharePairSolver(t *testing.T) {
	tpl, m, cfg := mlineConfig(11)
	paths, regs := pathsFor(t, m, 11, tpl)
	sort.Strings(regs)
	cfg.Registers = regs
	g := NewGenerator(paths, cfg)
	pairKeys := map[pairKey]bool{}
	for _, k := range g.keys {
		pairKeys[pairKey{a: k.a, b: k.b, slot: k.slot}] = true
	}
	// Keys are class-major: the first class's keys visit every pair key,
	// and the later classes' streams reuse their solvers.
	for i := 0; i < 3*len(pairKeys); i++ {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	if len(g.pairs) != len(pairKeys) {
		t.Fatalf("visited %d of %d pair keys", len(g.pairs), len(pairKeys))
	}
	solvers := map[*smt.Solver]bool{}
	for k, st := range g.streams {
		if st.ps != g.pairs[pairKey{a: k.a, b: k.b, slot: k.slot}] {
			t.Fatalf("stream %+v does not query its pair's shared solver", k)
		}
		solvers[st.ps.solver] = true
	}
	if len(solvers) != len(pairKeys) {
		t.Fatalf("generator built %d solvers for %d distinct pair keys", len(solvers), len(pairKeys))
	}
	if len(g.streams) <= len(pairKeys) {
		t.Fatalf("%d streams over %d pair keys: the guard exercised no sharing", len(g.streams), len(pairKeys))
	}
}

// TestIncrementalSemanticValidity checks every test case of the MLine
// config the way TestGeneratorRefinedTemplateA checks its own: states take the
// declared paths, M1 observations agree, refined observations differ, and
// the first access lands in the declared MLine class.
func TestIncrementalSemanticValidity(t *testing.T) {
	tpl, m, cfg := mlineConfig(3)
	paths, regs := pathsFor(t, m, 3, tpl)
	cfg.Registers = regs
	g := NewGenerator(paths, cfg)
	n := 0
	for i := 0; i < 24; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		n++
		if got := evalPath(paths, tc.S1); got != tc.PathA {
			t.Fatalf("s1 takes path %d, expected %d", got, tc.PathA)
		}
		if got := evalPath(paths, tc.S2); got != tc.PathB {
			t.Fatalf("s2 takes path %d, expected %d", got, tc.PathB)
		}
		b1 := evalObs(paths[tc.PathA], bir.TagBase, tc.S1)
		b2 := evalObs(paths[tc.PathB], bir.TagBase, tc.S2)
		if !eqU64(b1, b2) {
			t.Fatalf("M1 observations differ: %v vs %v", b1, b2)
		}
		r1 := evalObs(paths[tc.PathA], bir.TagRefined, tc.S1)
		r2 := evalObs(paths[tc.PathB], bir.TagRefined, tc.S2)
		if eqU64(r1, r2) {
			t.Fatalf("refined observations must differ: %v vs %v", r1, r2)
		}
		// MLine pins the first load observation's cache set (support.go):
		// evaluate the same value the constraint constrains.
		if set, ok := firstLoadSet(paths[tc.PathA], tc.S1); ok && int(set) != tc.Class {
			t.Fatalf("first access set %d does not match class %d", set, tc.Class)
		}
	}
	if n == 0 {
		t.Fatal("no test cases generated")
	}
}

// firstLoadSet evaluates the cache-set index MLine's class constraint pins:
// the low 7 bits of the first load observation's line identifier under st.
func firstLoadSet(p *symexec.Path, st *State) (uint64, bool) {
	a := expr.NewAssignment()
	for k, v := range st.Regs {
		a.BV[k] = v
	}
	a.Mem[bir.MemName] = st.Mem
	for _, o := range p.Obs {
		if o.Kind != "load" || len(o.Vals) == 0 {
			continue
		}
		return a.EvalBV(o.Vals[0]) & 127, true
	}
	return 0, false
}

// goldenCase is the serialized form of one generated test case.
type goldenCase struct {
	PathA, PathB, Class int
	S1, S2              string // sorted registers + sorted memory image
}

// runMLineGolden runs the seeded MLine campaign for up to n test cases and
// returns them with the query counters (sat, unsat, failed). Registers are
// sorted, the deterministic order the real pipeline uses.
func runMLineGolden(t *testing.T, seed int64, n int) ([]goldenCase, [3]int) {
	tpl, m, cfg := mlineConfig(seed)
	paths, regs := pathsFor(t, m, seed, tpl)
	sort.Strings(regs)
	cfg.Registers = regs
	g := NewGenerator(paths, cfg)
	var got []goldenCase
	for i := 0; i < n; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, goldenCase{
			PathA: tc.PathA, PathB: tc.PathB, Class: tc.Class,
			S1: sortedRegs(tc.S1) + "|" + sortedMem(tc.S1),
			S2: sortedRegs(tc.S2) + "|" + sortedMem(tc.S2),
		})
	}
	if len(got) == 0 {
		t.Fatal("no test cases generated")
	}
	return got, [3]int{g.QueriesSat, g.QueriesUnsat, g.QueriesFailed}
}

func compareCases(t *testing.T, got, want []goldenCase) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("case %d deviates from golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// mlineOutcomes is the seed-11 golden: the test cases of 40 enumeration
// steps and the query counters (sat, unsat, failed) behind them.
type mlineOutcomes struct {
	Cases   []goldenCase
	Queries [3]int
}

// TestGeneratorGoldenMLine pins the exact test-case sequence of seeded
// MLine campaigns, guarding the per-seed determinism contract across future
// solver changes. Seed 9 pins 16 cases. Seed 11 pins 40 cases and the query
// counters; when it was recorded, its stream keys and counters equalled
// those of a generator that built a fresh solver per (pair, class, slot)
// stream, so it also pins that sharing one solver per pair changes no
// outcome. Regenerate testdata/golden_mline*.json with UPDATE_GOLDEN=1 go
// test ./internal/core/ -run Golden — and say so in the commit message,
// since changed golden states mean changed generation behavior for every
// seeded campaign.
func TestGeneratorGoldenMLine(t *testing.T) {
	got, _ := runMLineGolden(t, 9, 16)
	var want []goldenCase
	goldenFile(t, "golden_mline.json", "  ", got, &want)
	compareCases(t, got, want)

	cases, queries := runMLineGolden(t, 11, 40)
	var want11 mlineOutcomes
	goldenFile(t, "golden_mline_seed11.json", "  ", mlineOutcomes{cases, queries}, &want11)
	compareCases(t, cases, want11.Cases)
	if queries != want11.Queries {
		t.Fatalf("query counters (sat, unsat, failed) %v, golden %v", queries, want11.Queries)
	}
}
