package sat

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomCNF3 builds a reproducible random 3-SAT instance. At ratio ~4.2 the
// instances straddle the sat/unsat threshold, exercising both verdicts.
func randomCNF3(seed int64, nVars, nClauses int) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	cls := make([][]Lit, nClauses)
	for i := range cls {
		c := make([]Lit, 3)
		for j := range c {
			c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		cls[i] = c
	}
	return cls
}

func addAll(s *Solver, nVars int, cls [][]Lit) {
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range cls {
		s.AddClause(c...)
	}
}

// watchLists copies every literal's watch list out of the solver's arena.
func watchLists(s *Solver) [][]cref {
	out := make([][]cref, len(s.wlist))
	for l, w := range s.wlist {
		out[l] = slices.Clone(s.watches[w.off : w.off+w.n])
	}
	return out
}

// TestCNFHashDiscriminates: the hash must agree for identical builds and be
// sensitive to clause changes.
func TestCNFHashDiscriminates(t *testing.T) {
	cls := randomCNF3(9, 20, 50)
	a := New(9)
	addAll(a, 20, cls)
	b := New(9)
	addAll(b, 20, cls)
	if a.CNFHash() != b.CNFHash() {
		t.Fatal("identical builds hash differently")
	}
	b.AddClause(MkLit(0, false), MkLit(1, false))
	if a.CNFHash() == b.CNFHash() {
		t.Fatal("hash blind to an added clause")
	}
}

// TestResetMatchesNew: a solver that held a larger CNF, learnt clauses,
// non-default options and a context, once Reset(seed), encodes and
// enumerates a second CNF exactly as New(seed) does: same clause database,
// same models, same search effort at every step.
func TestResetMatchesNew(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, in := range enumInstances() {
		used := New(99)
		used.DefaultPhase = true
		used.RandomPhaseProb = 0.3
		used.SetContext(ctx)
		used.MaxConflicts = 500
		addAll(used, 260, randomCNF3(in.seed+50, 260, 950))
		used.BoostVar(3, 5)
		used.Solve()
		used.AddClause(MkLit(0, used.Value(0)), MkLit(1, used.Value(1)))
		used.Solve(MkLit(2, true))
		if used.Learnt == 0 {
			t.Fatalf("seed %d: the used solver learnt nothing before Reset", in.seed)
		}
		used.Reset(in.seed)

		fresh := New(in.seed)
		gotRun, wantRun := runEnumeration(used, in), runEnumeration(fresh, in)
		if !reflect.DeepEqual(gotRun, wantRun) {
			t.Fatalf("%s: reset solver enumerated\n%+v\nfresh solver\n%+v", wantRun.Name, gotRun, wantRun)
		}
		if used.CNFHash() != fresh.CNFHash() || used.NumVars() != fresh.NumVars() {
			t.Fatalf("%s: reset solver CNF differs from a fresh one's", wantRun.Name)
		}
		if used.Stats() != fresh.Stats() {
			t.Fatalf("%s: stats %+v, fresh %+v", wantRun.Name, used.Stats(), fresh.Stats())
		}
		if !reflect.DeepEqual(used.Model(), fresh.Model()) {
			t.Fatalf("%s: final model differs from a fresh solver's", wantRun.Name)
		}
	}
}
