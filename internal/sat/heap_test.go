package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// rebuiltHeap returns the heap a from-scratch rebuild gives for s's current
// variables, level-0 assignments and base activities.
func rebuiltHeap(s *Solver) varHeap {
	act := slices.Clone(s.baseAct)
	h := varHeap{act: &act, pos: make([]int32, s.NumVars())}
	h.rebuild(s.assigns)
	return h
}

// TestResetSearchHeapMatchesRebuild drives random solver histories —
// variables added and boosted, unit and wider clauses, conflict-heavy
// Solve calls that learn units, blocking clauses after Sat models, and
// Reset — and checks after every ResetSearch that the heap the lazy state
// stands for (materialized) and its positions equal a from-scratch rebuild,
// whether ResetSearch rebuilt them or kept its copy, and that materializing
// again changes nothing. The history must also change each component of
// the copy's key alone at least once, so that a key missing any of them
// restores a stale heap somewhere in the run.
func TestResetSearchHeapMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(1)
	var prev heapKey
	var restored, varsOnly, trailOnly, boostsOnly int
	randLit := func() Lit { return MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0) }
	fill := func(nvars int) {
		for i := 0; i < nvars; i++ {
			s.NewVar()
			if rng.Intn(4) == 0 {
				s.BoostVar(i, float64(1+rng.Intn(3)))
			}
		}
		// Near the 3-SAT threshold, so Solve conflicts and learns units.
		for i := 0; i < nvars*42/10; i++ {
			s.AddClause(randLit(), randLit(), randLit())
		}
		prev = heapKey{vars: -1}
	}
	fill(40)
	for step := 0; step < 4000; step++ {
		if s.unsat || rng.Intn(200) == 0 {
			s.Reset(rng.Int63())
			fill(20 + rng.Intn(40))
			continue
		}
		switch op := rng.Intn(20); {
		case op < 2:
			s.NewVar()
		case op < 4:
			s.BoostVar(rng.Intn(s.NumVars()), float64(1+rng.Intn(4)))
		case op < 6:
			s.AddClause(randLit())
		case op < 8:
			s.AddClause(randLit(), randLit(), randLit())
		case op < 11:
			s.MaxConflicts = 200
			if s.Solve() == Sat {
				// Block the model on a few variables, as enumeration does.
				var block []Lit
				for i := 0; i < 2+rng.Intn(4); i++ {
					v := rng.Intn(s.NumVars())
					block = append(block, MkLit(v, s.Value(v)))
				}
				s.AddClause(block...)
			}
		default:
			s.ResetSearch(rng.Int63())
			key := heapKey{vars: s.NumVars(), trail0: len(s.trail), boosts: s.boosts}
			if key == prev {
				restored++
			}
			switch {
			case key.vars != prev.vars && key.trail0 == prev.trail0 && key.boosts == prev.boosts:
				varsOnly++
			case key.vars == prev.vars && key.trail0 != prev.trail0 && key.boosts == prev.boosts:
				trailOnly++
			case key.vars == prev.vars && key.trail0 == prev.trail0 && key.boosts != prev.boosts:
				boostsOnly++
			}
			prev = key
			want := rebuiltHeap(s)
			s.materialize()
			if !slices.Equal(s.heap.heap, want.heap) || !slices.Equal(s.heap.pos, want.pos) {
				t.Fatalf("step %d: heap after ResetSearch differs from a rebuild\n got heap %v pos %v\nwant heap %v pos %v",
					step, s.heap.heap, s.heap.pos, want.heap, want.pos)
			}
			s.materialize()
			if !slices.Equal(s.heap.heap, want.heap) || !slices.Equal(s.heap.pos, want.pos) {
				t.Fatalf("step %d: a second materialize changed the heap", step)
			}
		}
	}
	t.Logf("restored %d, vars-only %d, trail-only %d, boosts-only %d", restored, varsOnly, trailOnly, boostsOnly)
	if restored == 0 || varsOnly == 0 || trailOnly == 0 || boostsOnly == 0 {
		t.Fatalf("history too narrow: restored %d, vars-only %d, trail-only %d, boosts-only %d",
			restored, varsOnly, trailOnly, boostsOnly)
	}
}

// lockstep drives two solvers through the same operations: lazy keeps the
// heap ResetSearch leaves lazy, eager is materialized after every
// operation, so it always searches on a real heap.
type lockstep struct {
	t           *testing.T
	lazy, eager *Solver
}

func (l *lockstep) do(f func(s *Solver)) {
	f(l.lazy)
	f(l.eager)
	l.eager.materialize()
}

// solve runs Solve on both and requires the same status, effort and model.
func (l *lockstep) solve(step int, assumptions ...Lit) Status {
	l.t.Helper()
	got := l.lazy.Solve(assumptions...)
	want := l.eager.Solve(assumptions...)
	l.eager.materialize()
	if got != want || l.lazy.Stats() != l.eager.Stats() {
		l.t.Fatalf("step %d: lazy heap solved %v with %+v, eager %v with %+v",
			step, got, l.lazy.Stats(), want, l.eager.Stats())
	}
	if got == Sat && !slices.Equal(l.lazy.Model(), l.eager.Model()) {
		l.t.Fatalf("step %d: lazy heap found another model", step)
	}
	return got
}

// TestLazyHeapMatchesEager runs random solver histories on a solver whose
// heap ResetSearch leaves lazy and on one materialized after every
// operation, and requires the same status, search effort and model from
// every Solve. The histories mix easy and threshold-hard CNFs, so queries
// with and without conflicts, assumption solves that end Unsat, blocking
// clauses followed by NewVar, BoostVar or unit clauses before the next
// ResetSearch, and Solve → block → Solve enumeration with no ResetSearch.
// A last history backtracks out of assumption-Unsat solves until the
// queued inserts pass twice the variable count, and fills the trail by
// propagation while inserts are queued.
func TestLazyHeapMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &lockstep{t: t, lazy: New(1), eager: New(1)}
	var free, conflicted, assumptionUnsat, enumerated, afterBlock int
	blocked := false // a blocking clause was added since the last ResetSearch
	randLit := func() Lit { return MkLit(rng.Intn(l.lazy.NumVars()), rng.Intn(2) == 0) }
	fill := func() {
		nvars := 20 + rng.Intn(40)
		ratio := 10 + rng.Intn(35) // clauses per ten variables
		for i := 0; i < nvars; i++ {
			l.do(func(s *Solver) { s.NewVar() })
			if rng.Intn(4) == 0 {
				amount := float64(1 + rng.Intn(3))
				l.do(func(s *Solver) { s.BoostVar(i, amount) })
			}
		}
		for i := 0; i < nvars*ratio/10; i++ {
			a, b, c := randLit(), randLit(), randLit()
			l.do(func(s *Solver) { s.AddClause(a, b, c) })
		}
	}
	// query solves, then blocks the model on a few variables, as
	// enumeration does.
	query := func(step int) bool {
		wasLazy, mat, confl := l.lazy.lazy, l.lazy.materializations, l.lazy.Conflicts
		st := l.solve(step)
		switch {
		case wasLazy && l.lazy.materializations == mat && l.lazy.Conflicts == confl:
			free++
		case l.lazy.Conflicts != confl:
			conflicted++
		}
		if st != Sat {
			return false
		}
		var block []Lit
		for i := 0; i < 2+rng.Intn(4); i++ {
			v := rng.Intn(l.lazy.NumVars())
			block = append(block, MkLit(v, l.lazy.Value(v)))
		}
		l.do(func(s *Solver) { s.AddClause(block...) })
		blocked = true
		return true
	}
	fill()
	l.do(func(s *Solver) { s.MaxConflicts = 200 })
	for step := 0; step < 6000; step++ {
		if l.lazy.unsat || rng.Intn(150) == 0 {
			seed := rng.Int63()
			l.do(func(s *Solver) { s.Reset(seed); s.MaxConflicts = 200 })
			fill()
			blocked = false
			continue
		}
		op := rng.Intn(20)
		if blocked && op < 3 {
			afterBlock++
		}
		switch {
		case op < 1:
			l.do(func(s *Solver) { s.NewVar() })
		case op < 2:
			v, amount := rng.Intn(l.lazy.NumVars()), float64(1+rng.Intn(4))
			l.do(func(s *Solver) { s.BoostVar(v, amount) })
		case op < 3:
			a := randLit()
			l.do(func(s *Solver) { s.AddClause(a) })
		case op < 4:
			a, b, c := randLit(), randLit(), randLit()
			l.do(func(s *Solver) { s.AddClause(a, b, c) })
		case op < 8:
			query(step)
		case op < 10:
			as := []Lit{randLit(), randLit(), randLit()}[:1+rng.Intn(3)]
			if l.solve(step, as...) == Unsat && !l.lazy.unsat {
				assumptionUnsat++
			}
		case op < 12:
			for n := 1 + rng.Intn(4); n > 0 && query(step); n-- {
				enumerated++
			}
		default:
			seed := rng.Int63()
			l.do(func(s *Solver) { s.ResetSearch(seed) })
			blocked = false
		}
	}
	t.Logf("conflict-free lazy solves %d, conflicting %d, assumption-unsat %d, enumerated %d, edits after a block %d",
		free, conflicted, assumptionUnsat, enumerated, afterBlock)
	if free == 0 || conflicted == 0 || assumptionUnsat == 0 || enumerated == 0 || afterBlock == 0 {
		t.Fatal("history too narrow")
	}

	// x0 implies x1 … x(n-1) and ¬y, so assuming x0 and then y fills the
	// trail and ends Unsat. Each such solve queues n+1 inserts: the third
	// passes twice the variable count and must materialize the heap.
	const n = 30
	l.do(func(s *Solver) {
		s.Reset(3)
		for i := 0; i <= n; i++ {
			s.NewVar()
		}
		for i := 0; i+1 < n; i++ {
			s.AddClause(MkLit(i, true), MkLit(i+1, false))
		}
		s.AddClause(MkLit(0, true), MkLit(n, true))
		s.ResetSearch(3)
	})
	for i := 1; i <= 3; i++ {
		if l.solve(-i, MkLit(0, false), MkLit(n, false)) != Unsat {
			t.Fatal("assumptions x0 and y must be Unsat")
		}
		if got, want := l.lazy.materializations, i/3; got != want {
			t.Fatalf("after %d assumption-unsat solves: %d materializations, want %d", i, got, want)
		}
	}
	l.solve(-4)
	// Assuming y and then x0 is Unsat with x0 and y queued; assuming x0
	// alone then fills the trail by propagation, which empties the heap,
	// queue included, without a single pop. The next search must not
	// decide x0 and y first.
	l.do(func(s *Solver) { s.ResetSearch(4) })
	if l.solve(-5, MkLit(n, false), MkLit(0, false)) != Unsat || l.solve(-6, MkLit(0, false)) != Sat {
		t.Fatal("assumptions y, x0 must be Unsat and x0 alone Sat")
	}
	l.solve(-7)
}

// TestConflictFreeQueriesStayLazy pins the fast path: on a satisfiable CNF
// the search meets no conflict in, ResetSearch → Solve → blocking clause
// queries never build a real heap.
func TestConflictFreeQueriesStayLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nVars = 200
	s := New(1)
	for v := 0; v < nVars; v++ {
		s.NewVar()
		if v%5 == 0 {
			s.BoostVar(v, float64(1+rng.Intn(3)))
		}
	}
	// Clauses of negative literals only: the default phase satisfies them.
	for i := 0; i < 3*nVars; i++ {
		s.AddClause(MkLit(rng.Intn(nVars), true), MkLit(rng.Intn(nVars), true), MkLit(rng.Intn(nVars), true))
	}
	for q := 0; q < 50; q++ {
		s.ResetSearch(int64(q))
		if s.Solve() != Sat {
			t.Fatalf("query %d: not Sat", q)
		}
		var block []Lit
		for i := 0; i < 3; i++ {
			v := rng.Intn(nVars)
			block = append(block, MkLit(v, s.Value(v)))
		}
		s.AddClause(block...)
	}
	if s.Conflicts != 0 || s.Decisions == 0 {
		t.Fatalf("%d conflicts and %d decisions: want a conflict-free search that decides", s.Conflicts, s.Decisions)
	}
	if s.materializations != 0 {
		t.Fatalf("conflict-free queries materialized the heap %d times", s.materializations)
	}
}
