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
// Reset — and checks after every ResetSearch that the heap and its
// positions equal a from-scratch rebuild, whether ResetSearch rebuilt
// them or restored its copy. The history must also change each component
// of the copy's key alone at least once, so that a key missing any of
// them restores a stale heap somewhere in the run.
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
			if !slices.Equal(s.heap.heap, want.heap) || !slices.Equal(s.heap.pos, want.pos) {
				t.Fatalf("step %d: heap after ResetSearch differs from a rebuild\n got heap %v pos %v\nwant heap %v pos %v",
					step, s.heap.heap, s.heap.pos, want.heap, want.pos)
			}
		}
	}
	t.Logf("restored %d, vars-only %d, trail-only %d, boosts-only %d", restored, varsOnly, trailOnly, boostsOnly)
	if restored == 0 || varsOnly == 0 || trailOnly == 0 || boostsOnly == 0 {
		t.Fatalf("history too narrow: restored %d, vars-only %d, trail-only %d, boosts-only %d",
			restored, varsOnly, trailOnly, boostsOnly)
	}
}
