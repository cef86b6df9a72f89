package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"scamv/internal/bir"
	"scamv/internal/expr"
	"scamv/internal/gen"
	"scamv/internal/lifter"
	"scamv/internal/obs"
	"scamv/internal/symexec"
)

// pathsFor lifts and instruments a template program and returns its
// symbolic paths plus the architectural register list.
func pathsFor(t testing.TB, m obs.ModelPair, seed int64, tpl gen.Template) ([]*symexec.Path, []string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := tpl.Generate(r, 0)
	bp, err := lifter.Lift(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.Instrument(bp)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := symexec.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	var regs []string
	for name := range q.Registers() {
		if len(name) >= 2 && name[0] == 'x' {
			regs = append(regs, name)
		}
	}
	return paths, regs
}

// evalObs evaluates a path's observations of one tag class under a state.
func evalObs(p *symexec.Path, tag bir.ObsTag, st *State) []uint64 {
	a := expr.NewAssignment()
	for k, v := range st.Regs {
		a.BV[k] = v
	}
	a.Mem[bir.MemName] = st.Mem
	var out []uint64
	for _, o := range p.Obs {
		if o.Tag != tag || !a.EvalBool(o.Cond) {
			continue
		}
		for _, v := range o.Vals {
			out = append(out, a.EvalBV(v))
		}
	}
	return out
}

// evalPath returns the index of the path a state takes.
func evalPath(paths []*symexec.Path, st *State) int {
	a := expr.NewAssignment()
	for k, v := range st.Regs {
		a.BV[k] = v
	}
	a.Mem[bir.MemName] = st.Mem
	for i, p := range paths {
		if a.EvalBool(p.Cond) {
			return i
		}
	}
	return -1
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGeneratorRefinedTemplateA(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs})
	n := 0
	for i := 0; i < 20; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		n++
		// Semantic check of the refinement algorithm (§3): the states'
		// actual paths satisfy the chosen pair, M1 observations agree and
		// M2-only observations differ.
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
	}
	if n == 0 {
		t.Fatal("no test cases generated")
	}
}

func TestGeneratorUnguidedKeepsM1Equal(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: false, Registers: regs})
	n := 0
	for i := 0; i < 10; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		n++
		b1 := evalObs(paths[tc.PathA], bir.TagBase, tc.S1)
		b2 := evalObs(paths[tc.PathB], bir.TagBase, tc.S2)
		if !eqU64(b1, b2) {
			t.Fatalf("M1 observations differ: %v vs %v", b1, b2)
		}
	}
	if n == 0 {
		t.Fatal("no test cases generated")
	}
}

func sortedRegs(s *State) string {
	names := make([]string, 0, len(s.Regs))
	for k := range s.Regs {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("%s=%d;", n, s.Regs[n])
	}
	return out
}

func sortedMem(s *State) string {
	addrs := make([]uint64, 0, len(s.Mem.Data))
	for a := range s.Mem.Data {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := ""
	for _, a := range addrs {
		out += fmt.Sprintf("%d=%d;", a, s.Mem.Data[a])
	}
	return out
}

func TestGeneratorEnumerationMakesProgress(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs})
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		key := fmt.Sprintf("%d|%v|%v|%v|%v", tc.PathA, sortedRegs(tc.S1), sortedRegs(tc.S2),
			sortedMem(tc.S1), sortedMem(tc.S2))
		if seen[key] {
			t.Fatal("enumeration repeated a test case")
		}
		seen[key] = true
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	get := func() []*TestCase {
		g := NewGenerator(paths, Config{Seed: 7, Refined: true, Registers: regs})
		var out []*TestCase
		for i := 0; i < 5; i++ {
			tc, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, tc)
		}
		return out
	}
	a, b := get(), get()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		for r, v := range a[i].S1.Regs {
			if b[i].S1.Regs[r] != v {
				t.Fatalf("tc %d: register %s differs", i, r)
			}
		}
	}
}

func TestMPartRefinementForcesOutsideARDifference(t *testing.T) {
	ar := obs.ARRegion{Lo: 61, Hi: 127, Geom: obs.DefaultGeometry}
	m := &obs.MPart{AR: ar, WithRefinement: true}
	paths, regs := pathsFor(t, m, 3, gen.Stride{})
	g := NewGenerator(paths, Config{Seed: 2, Refined: true, Registers: regs})
	tc, ok := g.Next()
	if !ok {
		t.Fatal("no test case")
	}
	b1 := evalObs(paths[tc.PathA], bir.TagBase, tc.S1)
	b2 := evalObs(paths[tc.PathB], bir.TagBase, tc.S2)
	if !eqU64(b1, b2) {
		t.Fatalf("AR-visible observations must agree: %v vs %v", b1, b2)
	}
	r1 := evalObs(paths[tc.PathA], bir.TagRefined, tc.S1)
	r2 := evalObs(paths[tc.PathB], bir.TagRefined, tc.S2)
	if eqU64(r1, r2) {
		t.Fatal("refined (all-access) observations must differ")
	}
}

func TestSupportClassConstraint(t *testing.T) {
	ar := obs.ARRegion{Lo: 61, Hi: 127, Geom: obs.DefaultGeometry}
	m := &obs.MPart{AR: ar, WithRefinement: true}
	paths, regs := pathsFor(t, m, 3, gen.Stride{})
	sup := obs.MLine{Geom: obs.DefaultGeometry}
	g := NewGenerator(paths, Config{Seed: 2, Refined: true, Registers: regs, Support: sup})
	// The round-robin should visit different classes: collect the set of
	// first-access cache sets over a few test cases.
	sets := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		r1 := evalObs(paths[tc.PathA], bir.TagRefined, tc.S1)
		if len(r1) == 0 {
			t.Fatal("no refined observation")
		}
		sets[r1[0]&127] = true
		if int(r1[0]&127) != tc.Class {
			t.Fatalf("first access set %d does not match class %d", r1[0]&127, tc.Class)
		}
	}
	if len(sets) < 2 {
		t.Errorf("class enumeration did not move: %v", sets)
	}
}

func TestTrainingState(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	if len(paths) != 2 {
		t.Fatalf("paths: %d", len(paths))
	}
	for testPath := range paths {
		st, ok := TrainingState(paths, testPath, regs, 1)
		if !ok {
			t.Fatalf("no training state for path %d", testPath)
		}
		if got := evalPath(paths, st); got == testPath || got == -1 {
			t.Fatalf("training state takes path %d (test path %d)", got, testPath)
		}
	}
}

func TestObsListEq(t *testing.T) {
	mk := func(v uint64) symexec.Obs {
		return symexec.Obs{Cond: expr.True, Vals: []expr.BVExpr{expr.C64(v)}}
	}
	if ObsListEq([]symexec.Obs{mk(1)}, []symexec.Obs{mk(1), mk(2)}) != expr.False {
		t.Error("different lengths must be unequal")
	}
	if ObsListEq([]symexec.Obs{mk(1)}, []symexec.Obs{mk(1)}) != expr.True {
		t.Error("identical constant lists must be equal")
	}
	if ObsListEq(nil, nil) != expr.True {
		t.Error("empty lists are equal")
	}
	// Conditional slots: both absent counts as equal.
	absent := symexec.Obs{Cond: expr.False, Vals: []expr.BVExpr{expr.C64(1)}}
	absent2 := symexec.Obs{Cond: expr.False, Vals: []expr.BVExpr{expr.C64(2)}}
	if got := ObsListEq([]symexec.Obs{absent}, []symexec.Obs{absent2}); got != expr.True {
		t.Errorf("both-absent slots must be equal, got %s", got)
	}
	// Present vs absent is unequal.
	if got := ObsListEq([]symexec.Obs{mk(1)}, []symexec.Obs{absent}); got != expr.False {
		t.Errorf("present vs absent must be unequal, got %s", got)
	}
}

func TestMonolithicRelationAgreesWithPairs(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	// Any model of a pair relation must satisfy the monolithic relation.
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs})
	tc, ok := g.Next()
	if !ok {
		t.Fatal("no test case")
	}
	mono := MonolithicRelation(paths, true)
	a := expr.NewAssignment()
	for k, v := range tc.S1.Regs {
		a.BV[k+"_1"] = v
	}
	for k, v := range tc.S2.Regs {
		a.BV[k+"_2"] = v
	}
	a.Mem["MEM_1"] = tc.S1.Mem
	a.Mem["MEM_2"] = tc.S2.Mem
	if !a.EvalBool(mono) {
		t.Error("pair-relation model does not satisfy the monolithic relation")
	}
}

func TestRefinementSlotCoverage(t *testing.T) {
	// Template C (two dependent transient loads): the generator must
	// produce test cases where the FIRST refined observation differs and
	// others where the SECOND differs, exercising both transient loads.
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 9, gen.TemplateC{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs})
	firstDiffers, secondDiffers := false, false
	for i := 0; i < 12; i++ {
		tc, ok := g.Next()
		if !ok {
			break
		}
		r1 := evalObs(paths[tc.PathA], bir.TagRefined, tc.S1)
		r2 := evalObs(paths[tc.PathB], bir.TagRefined, tc.S2)
		if len(r1) != 2 || len(r2) != 2 {
			continue
		}
		if r1[0] != r2[0] {
			firstDiffers = true
		}
		if r1[1] != r2[1] {
			secondDiffers = true
		}
	}
	if !firstDiffers || !secondDiffers {
		t.Errorf("slot coverage incomplete: first=%v second=%v", firstDiffers, secondDiffers)
	}
}

func TestGeneratorStats(t *testing.T) {
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs})
	for i := 0; i < 5; i++ {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	if g.QueriesSat == 0 {
		t.Error("no satisfiable queries recorded")
	}
	if g.QueriesSat+g.QueriesUnsat+g.QueriesFailed < 5 {
		t.Errorf("stats undercount: %d/%d/%d", g.QueriesSat, g.QueriesUnsat, g.QueriesFailed)
	}
}

func TestGeneratorMaxConflictsGivesUp(t *testing.T) {
	// With an absurdly small conflict budget, streams die with Unknown
	// instead of hanging; Next eventually returns false.
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 5, gen.TemplateA{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: true, Registers: regs, MaxConflicts: 1})
	for i := 0; i < 100; i++ {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	if g.QueriesFailed == 0 && g.QueriesSat > 50 {
		t.Error("conflict budget had no effect")
	}
}

func TestStateClone(t *testing.T) {
	s := &State{Regs: map[string]uint64{"x0": 7}, Mem: expr.NewMemModel(0)}
	s.Mem.Set(8, 9)
	c := s.Clone()
	c.Regs["x0"] = 1
	c.Mem.Set(8, 10)
	if s.Regs["x0"] != 7 || s.Mem.Get(8) != 9 {
		t.Error("clone aliases the original")
	}
}

func TestUnrefinedIgnoresSlots(t *testing.T) {
	// Without refinement there must be exactly one stream per (pair,
	// class), regardless of refined observation counts.
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll}
	paths, regs := pathsFor(t, m, 9, gen.TemplateC{})
	g := NewGenerator(paths, Config{Seed: 1, Refined: false, Registers: regs})
	perPair := map[[2]int]bool{}
	for _, k := range g.keys {
		if k.slot != -1 {
			t.Fatalf("unrefined generator has slot stream %+v", k)
		}
		perPair[[2]int{k.a, k.b}] = true
	}
	if len(g.keys) != len(perPair) {
		t.Error("duplicate streams per pair")
	}
}

func TestTestCaseDiff(t *testing.T) {
	mk := func() *State {
		return &State{Regs: map[string]uint64{"x0": 1, "x5": 2}, Mem: expr.NewMemModel(0)}
	}
	s1, s2 := mk(), mk()
	tc := &TestCase{S1: s1, S2: s2}
	if d := tc.Diff(); len(d) != 0 {
		t.Errorf("identical states diff: %v", d)
	}
	s2.Regs["x5"] = 9
	s2.Mem.Set(0x100, 1)
	d := tc.Diff()
	if len(d) != 2 || d[0] != "x5" || d[1] != "mem" {
		t.Errorf("diff: %v", d)
	}
	// Memory difference via default vs explicit-equal entries is NOT a diff.
	s3, s4 := mk(), mk()
	s4.Mem.Set(0x200, 0) // explicit zero equals the default
	if d := (&TestCase{S1: s3, S2: s4}).Diff(); len(d) != 0 {
		t.Errorf("equal memories flagged: %v", d)
	}
}
