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

// replayPops writes into dst the heap s.rebuilt leaves after s.popped
// pops, by popping a copy of it: what materialize's undoPops must give.
func replayPops(s *Solver, dst []int32) []int32 {
	dst = append(dst[:0], s.rebuilt...)
	for n := len(dst); n > len(s.rebuilt)-s.popped; n-- {
		drainPop(dst[:n], s.activity)
	}
	return dst[:len(s.rebuilt)-s.popped]
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
			v := s.NewVar()
			if rng.Intn(2) == 0 {
				s.BoostVar(v, float64(1+rng.Intn(4)))
			}
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
	t.Logf("restored %d, vars-only %d, trail-only %d, boosts-only %d",
		restored, varsOnly, trailOnly, boostsOnly)
	if restored == 0 || varsOnly == 0 || trailOnly == 0 || boostsOnly == 0 {
		t.Fatal("history too narrow")
	}
}

// TestMaterializeUndoMatchesReplay drains the rebuilt heap of random
// activities with many ties, and requires that for every number of pops
// up to the drained count, undoing the drain's later pops gives the heap
// that replaying the pops on the rebuild gives.
func TestMaterializeUndoMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var replayed, undone []int32
	checked := 0
	for round := 0; round < 300; round++ {
		s := New(1)
		nvars := 1 + rng.Intn(60)
		for v := 0; v < nvars; v++ {
			s.NewVar()
			if rng.Intn(3) != 0 {
				s.BoostVar(v, float64(rng.Intn(4)))
			}
		}
		if rng.Intn(2) == 0 {
			s.AddClause(MkLit(rng.Intn(nvars), rng.Intn(2) == 0))
		}
		s.ResetSearch(1)
		for n := rng.Intn(len(s.rebuilt) + 1); n > 0; n-- {
			s.pickBranchVar()
		}
		drained := s.popped
		for s.popped = 0; s.popped <= drained; s.popped++ {
			replayed = replayPops(s, replayed)
			undone = s.undoPops(undone)
			if !slices.Equal(replayed, undone) {
				t.Fatalf("round %d: %d of %d pops drained: undo gives %v, replay %v",
					round, s.popped, drained, undone, replayed)
			}
			checked++
		}
		// materialize's positions follow the slots.
		s.popped = rng.Intn(drained + 1)
		want := replayPops(s, nil)
		s.materialize()
		for i, v := range s.heap.heap {
			if s.heap.pos[v] != int32(i) {
				t.Fatalf("round %d: position of %d is %d, its slot %d", round, v, s.heap.pos[v], i)
			}
		}
		if !slices.Equal(s.heap.heap, want) {
			t.Fatalf("round %d: materialize after %d of %d pops gives %v, replay %v",
				round, s.popped, drained, s.heap.heap, want)
		}
	}
	t.Logf("%d pop counts checked", checked)
}

// lockstep drives two solvers through the same operations: lazy is the
// solver as it is, whose heap ResetSearch leaves lazy and whose AddClause
// after a model leaves the backtrack owed; eager backtracks to level 0
// after every AddClause, which is what AddClause once did, and is
// materialized after every operation, so it always searches on a real
// heap. step names the operation in failure messages.
type lockstep struct {
	t           *testing.T
	lazy, eager *Solver
	step        int
}

func (l *lockstep) do(f func(s *Solver)) {
	l.t.Helper()
	f(l.lazy)
	f(l.eager)
	l.eager.materialize()
	l.check()
}

// add adds a clause to both and requires the same result.
func (l *lockstep) add(lits ...Lit) {
	l.t.Helper()
	got, want := l.lazy.AddClause(lits...), l.eager.AddClause(lits...)
	l.eager.cancelUntil(0)
	l.eager.materialize()
	if got != want {
		l.t.Fatalf("step %d: AddClause(%v) = %v, eager %v", l.step, lits, got, want)
	}
	l.check()
}

// solve runs Solve on both and requires the same status, effort and model.
func (l *lockstep) solve(assumptions ...Lit) Status {
	l.t.Helper()
	got := l.lazy.Solve(assumptions...)
	want := l.eager.Solve(assumptions...)
	l.eager.materialize()
	if got != want || l.lazy.Stats() != l.eager.Stats() {
		l.t.Fatalf("step %d: lazy heap solved %v with %+v, eager %v with %+v",
			l.step, got, l.lazy.Stats(), want, l.eager.Stats())
	}
	if got == Sat && !slices.Equal(l.lazy.Model(), l.eager.Model()) {
		l.t.Fatalf("step %d: lazy heap found another model", l.step)
	}
	l.check()
	return got
}

// check requires the same CNF of both and, unless the lazy solver owes a
// backtrack, the same trail, phases and activities, and the same heap and
// positions while its heap is real.
func (l *lockstep) check() {
	l.t.Helper()
	a, b := l.lazy, l.eager
	if a.unsat != b.unsat || a.CNFHash() != b.CNFHash() {
		l.t.Fatalf("step %d: lazy solver has CNF %x, unsat %v; eager %x, %v",
			l.step, a.CNFHash(), a.unsat, b.CNFHash(), b.unsat)
	}
	if a.owed {
		return
	}
	if !slices.Equal(a.trail, b.trail) || !slices.Equal(a.trailLim, b.trailLim) || a.qhead != b.qhead ||
		!slices.Equal(a.assigns, b.assigns) || !slices.Equal(a.phase, b.phase) ||
		!slices.Equal(a.activity, b.activity) || a.varInc != b.varInc {
		l.t.Fatalf("step %d: settled trail, phases or activities differ from eager", l.step)
	}
	if !a.lazy && (!slices.Equal(a.heap.heap, b.heap.heap) || !slices.Equal(a.heap.pos, b.heap.pos)) {
		l.t.Fatalf("step %d: real heap differs from eager", l.step)
	}
}

// TestLazyHeapMatchesEager runs random solver histories on a solver whose
// heap ResetSearch leaves lazy and whose AddClause after a model owes the
// backtrack, and on one that backtracks after every AddClause and is
// materialized after every operation. It requires the same status, search
// effort and model from every Solve, the same CNF after every step, and the
// same settled state whenever nothing is owed (see lockstep.check). The
// histories mix easy and threshold-hard CNFs, so queries with and without
// conflicts, assumption solves that end Unsat, and Solve → clause → Solve
// enumeration with no ResetSearch. After a model the clause is a blocking
// clause, one satisfied at level 0, a tautology, one with a level-0-false
// literal or an empty one, and NewVar, BoostVar, unit and wider clauses,
// Solve and ResetSearch each follow a clause that left the backtrack owed.
// A last history backtracks out of assumption-Unsat solves until the
// queued inserts pass twice the variable count, and fills the trail by
// propagation while inserts are queued.
func TestLazyHeapMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &lockstep{t: t, lazy: New(1), eager: New(1)}
	var free, conflicted, assumptionUnsat, enumerated int
	kinds := []string{"blocking", "satisfied", "tautology", "level-0-false", "empty"}
	follows := []string{"NewVar", "BoostVar", "unit", "AddClause", "Solve", "ResetSearch"}
	kindSeen, followSeen := make([]int, len(kinds)), make([]int, len(follows))
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
			l.add(randLit(), randLit(), randLit())
		}
	}
	// rootTrue returns a literal true at level 0, if there is one.
	rootTrue := func() (Lit, bool) {
		s := l.lazy
		n := len(s.trail)
		if len(s.trailLim) > 0 {
			n = int(s.trailLim[0])
		}
		if n == 0 {
			return 0, false
		}
		return s.trail[rng.Intn(n)], true
	}
	// query solves and, after a Sat model, adds a clause: mostly one that
	// blocks the model on a few variables, as enumeration does.
	query := func() bool {
		wasLazy, mat, confl := l.lazy.lazy, l.lazy.materializations, l.lazy.Conflicts
		st := l.solve()
		switch {
		case wasLazy && l.lazy.materializations == mat && l.lazy.Conflicts == confl:
			free++
		case l.lazy.Conflicts != confl:
			conflicted++
		}
		if st != Sat {
			return false
		}
		kind := 0
		switch r := rng.Intn(60); {
		case r < 15:
			kind = 1 + r/5
		case r == 15:
			kind = 4
		}
		var cl []Lit
		switch r, ok := rootTrue(); kinds[kind] {
		case "blocking":
			for i := 0; i < 2+rng.Intn(4); i++ {
				v := rng.Intn(l.lazy.NumVars())
				cl = append(cl, MkLit(v, l.lazy.Value(v)))
			}
		case "satisfied":
			if !ok {
				return false
			}
			cl = []Lit{randLit(), r, randLit()}
		case "tautology":
			a := randLit()
			cl = []Lit{randLit(), a, randLit(), a.Neg()}
		case "level-0-false":
			if !ok {
				return false
			}
			cl = []Lit{randLit(), r.Neg(), randLit()}
		case "empty":
			if ok && rng.Intn(2) == 0 {
				cl = []Lit{r.Neg()}
			}
		}
		kindSeen[kind]++
		l.add(cl...)
		return true
	}
	fill()
	l.do(func(s *Solver) { s.MaxConflicts = 200 })
	for step := 0; step < 6000; step++ {
		l.step = step
		if l.lazy.unsat || rng.Intn(150) == 0 {
			seed := rng.Int63()
			l.do(func(s *Solver) { s.Reset(seed); s.MaxConflicts = 200 })
			fill()
			continue
		}
		op, owed := rng.Intn(20), l.lazy.owed
		switch {
		case op < 1:
			l.do(func(s *Solver) { s.NewVar() })
		case op < 2:
			v, amount := rng.Intn(l.lazy.NumVars()), float64(1+rng.Intn(4))
			l.do(func(s *Solver) { s.BoostVar(v, amount) })
		case op < 3:
			l.add(randLit())
		case op < 4:
			l.add(randLit(), randLit(), randLit())
		case op < 8:
			query()
		case op < 10:
			as := []Lit{randLit(), randLit(), randLit()}[:1+rng.Intn(3)]
			if l.solve(as...) == Unsat && !l.lazy.unsat {
				assumptionUnsat++
			}
		case op < 12:
			for n := 1 + rng.Intn(4); n > 0 && query(); n-- {
				enumerated++
			}
		default:
			seed := rng.Int63()
			l.do(func(s *Solver) { s.ResetSearch(seed) })
		}
		if owed {
			switch {
			case op < 4:
				followSeen[op]++
			case op < 12:
				followSeen[4]++
			default:
				followSeen[5]++
			}
		}
	}
	t.Logf("conflict-free lazy solves %d, conflicting %d, assumption-unsat %d, enumerated %d; clauses after a model %v, after an owed backtrack %v",
		free, conflicted, assumptionUnsat, enumerated, kindSeen, followSeen)
	if free == 0 || conflicted == 0 || assumptionUnsat == 0 || enumerated == 0 {
		t.Fatal("history too narrow")
	}
	for i, n := range kindSeen {
		if n == 0 {
			t.Fatalf("history too narrow: no %s clause after a model", kinds[i])
		}
	}
	for i, n := range followSeen {
		if n == 0 {
			t.Fatalf("history too narrow: no %s after an owed backtrack", follows[i])
		}
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
		l.step = -i
		if l.solve(MkLit(0, false), MkLit(n, false)) != Unsat {
			t.Fatal("assumptions x0 and y must be Unsat")
		}
		if got, want := l.lazy.materializations, i/3; got != want {
			t.Fatalf("after %d assumption-unsat solves: %d materializations, want %d", i, got, want)
		}
	}
	l.step = -4
	l.solve()
	// Assuming y and then x0 is Unsat with x0 and y queued; assuming x0
	// alone then fills the trail by propagation, which empties the heap,
	// queue included, without a single pop. The next search must not
	// decide x0 and y first.
	l.do(func(s *Solver) { s.ResetSearch(4) })
	l.step = -5
	if l.solve(MkLit(n, false), MkLit(0, false)) != Unsat || l.solve(MkLit(0, false)) != Sat {
		t.Fatal("assumptions y, x0 must be Unsat and x0 alone Sat")
	}
	l.solve()
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
