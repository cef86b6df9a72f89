package core

import (
	"reflect"
	"sort"
	"testing"

	"scamv/internal/sat"
)

// recycleProgram is one fixed program of a CNF identity campaign.
type recycleProgram struct {
	c    cnfCampaign
	prog int64
}

// generator builds the program's generator, configured as the CNF identity
// fixture does, over the given engine set (nil: one that starts empty, as
// in a fresh process).
func (p recycleProgram) generator(t *testing.T, set *engineSet) *Generator {
	t.Helper()
	paths, regs := pathsFor(t, p.c.m, p.prog, p.c.tpl)
	sort.Strings(regs)
	cfg := p.c.cfg
	cfg.Seed, cfg.Registers, cfg.MaxConflicts = p.prog, regs, 200000
	g := NewGenerator(paths, cfg)
	if set == nil {
		set = new(engineSet)
	}
	g.engines = set
	return g
}

// recycleRun is what a generator produced: its test cases and its
// sat/unsat/failed query counters.
type recycleRun struct {
	tests              []*TestCase
	sat, unsat, failed int
	built              int
}

// drain runs g for up to 12 test cases.
func drain(g *Generator) recycleRun {
	var r recycleRun
	for len(r.tests) < 12 {
		tc, ok := g.Next()
		if !ok {
			break
		}
		r.tests = append(r.tests, tc)
	}
	r.sat, r.unsat, r.failed, r.built = g.QueriesSat, g.QueriesUnsat, g.QueriesFailed, g.built
	return r
}

// TestRecycledEnginesMatchFresh: a generator whose pair solvers run on the
// engine set another program released — one that built more pair solvers
// and one that built fewer — yields the same test cases and query counters
// as on fresh engines. The released engines hold larger and smaller CNFs,
// learnt and blocking clauses, and spent search state. The programs run in
// a chain, each on the set the one before released, so some positions
// reach the target emptied because their engine had grown oversized.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	cs := cnfCampaigns() // mct-a/unguided, mct-a/refined, mpart/unguided, mpart/refined
	target := recycleProgram{cs[3], 1}
	others := []recycleProgram{{cs[3], 3}, {cs[1], 5}, {cs[2], 3}, {cs[0], 1}, {cs[1], 1}}
	want := drain(target.generator(t, nil))
	if want.sat == 0 || want.unsat == 0 || want.built < 2 {
		t.Fatalf("target built %d pair solvers for %d sat and %d unsat queries; the fixture is too small",
			want.built, want.sat, want.unsat)
	}
	var more, fewer bool
	var set *engineSet
	reused, dropped := 0, 0
	for _, o := range others {
		g := o.generator(t, set)
		released := drain(g).built
		set = g.detach()
		if len(set.engs) != released {
			t.Fatalf("%s: released %d engines, built %d", o.c.name, len(set.engs), released)
		}
		for _, e := range set.engs[:min(released, want.built)] {
			if e == nil {
				dropped++
			} else {
				reused++
			}
		}
		more = more || released > want.built
		fewer = fewer || released < want.built
		tg := target.generator(t, set)
		if got := drain(tg); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s (%d engines): %d tests, sat/unsat/failed %d/%d/%d; fresh engines give %d tests, %d/%d/%d",
				o.c.name, released, len(got.tests), got.sat, got.unsat, got.failed,
				len(want.tests), want.sat, want.unsat, want.failed)
		}
		set = tg.detach()
	}
	if !more || !fewer {
		t.Fatalf("fixture lacks a released set with more (%v) or fewer (%v) engines than the target's %d",
			more, fewer, want.built)
	}
	if reused == 0 || dropped == 0 {
		t.Fatalf("the target reused %d engines and found %d positions emptied; the fixture needs both", reused, dropped)
	}
}

// TestReleaseEndsGenerator: after Release the generator reports exhaustion
// and holds no solver, and a second Release is harmless.
func TestReleaseEndsGenerator(t *testing.T) {
	g := recycleProgram{cnfCampaigns()[0], 1}.generator(t, nil)
	if _, ok := g.Next(); !ok {
		t.Fatal("no first test case")
	}
	g.Release()
	if tc, ok := g.Next(); ok || tc != nil {
		t.Fatal("Next after Release produced a test case")
	}
	if g.pairs != nil || g.engines != nil {
		t.Fatal("released generator still holds its solvers")
	}
	g.Release()
}

// BenchmarkPairSolverLifecycle measures the common life of a pair solver:
// build it, run one query, block the model, and release the generator, so
// that the next iteration's solver reuses the engine through the pool.
// Allocations per op show what recycling leaves.
func BenchmarkPairSolverLifecycle(b *testing.B) {
	proto := benchGenerator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGenerator(proto.paths, proto.cfg)
		st := g.newStream(g.keys[0])
		s := st.ps.solver
		s.ResetSearch(st.seed)
		if s.CheckUnder(st.handle) != sat.Sat {
			b.Fatal("pair relation unsat")
		}
		s.BlockVarsUnder(st.handle, st.names)
		g.Release()
	}
}
