package sat

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomCNF builds a reproducible random k-SAT instance. At ratio ~4.2 the
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

func addAll(e Engine, nVars int, cls [][]Lit) {
	for i := 0; i < nVars; i++ {
		e.NewVar()
	}
	for _, c := range cls {
		e.AddClause(c...)
	}
}

// TestPortfolioMatchesSingle: for the same seed, a plain solver, a 1-worker
// portfolio, and a 4-worker portfolio must produce the same verdict and
// (when sat) the same canonical model on every instance.
func TestPortfolioMatchesSingle(t *testing.T) {
	const nVars, nClauses = 40, 170
	for seed := int64(0); seed < 40; seed++ {
		cls := randomCNF3(seed, nVars, nClauses)
		base := Config{Seed: seed}

		plain := New(seed)
		p1 := NewPortfolio(DefaultPortfolioConfigs(base, 1))
		p4 := NewPortfolio(DefaultPortfolioConfigs(base, 4))
		addAll(plain, nVars, cls)
		addAll(p1, nVars, cls)
		addAll(p4, nVars, cls)

		plain.ResetSearch(seed)
		p1.ResetSearch(seed)
		p4.ResetSearch(seed)
		st := plain.Solve()
		st1 := p1.Solve()
		st4 := p4.Solve()
		if st1 != st || st4 != st {
			t.Fatalf("seed %d: plain=%v p1=%v p4=%v", seed, st, st1, st4)
		}
		if st == Sat {
			m, m1, m4 := plain.Model(), p1.Model(), p4.Model()
			if !reflect.DeepEqual(m, m1) || !reflect.DeepEqual(m, m4) {
				t.Fatalf("seed %d: models diverge across portfolio sizes", seed)
			}
		}
	}
}

// TestPortfolioEnumerationDeterminism drives full model enumeration with
// blocking clauses — the same access pattern core uses for test generation —
// and requires byte-identical model sequences at portfolio sizes 1 and 4.
func TestPortfolioEnumerationDeterminism(t *testing.T) {
	const nVars, nClauses = 24, 60 // underconstrained: many models
	enumerate := func(p *Portfolio, seed int64, cls [][]Lit) [][]bool {
		addAll(p, nVars, cls)
		var models [][]bool
		for i := 0; i < 30; i++ {
			p.ResetSearch(seed + int64(i)*65537)
			if p.Solve() != Sat {
				break
			}
			m := p.Model()
			models = append(models, m)
			block := make([]Lit, nVars)
			for v := 0; v < nVars; v++ {
				block[v] = MkLit(v, m[v])
			}
			if !p.AddClause(block...) {
				break
			}
		}
		return models
	}
	for seed := int64(0); seed < 10; seed++ {
		cls := randomCNF3(seed, nVars, nClauses)
		base := Config{Seed: seed}
		m1 := enumerate(NewPortfolio(DefaultPortfolioConfigs(base, 1)), seed, cls)
		m4 := enumerate(NewPortfolio(DefaultPortfolioConfigs(base, 4)), seed, cls)
		if !reflect.DeepEqual(m1, m4) {
			t.Fatalf("seed %d: enumeration sequences diverge (%d vs %d models)",
				seed, len(m1), len(m4))
		}
	}
}

// TestPortfolioAssumptions checks verdict agreement under assumption-driven
// queries (the CheckUnder pattern), including re-querying after Unsat.
func TestPortfolioAssumptions(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cls := randomCNF3(seed, 30, 100)
		p1 := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: seed}, 1))
		p4 := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: seed}, 4))
		addAll(p1, 30, cls)
		addAll(p4, 30, cls)
		for q := 0; q < 6; q++ {
			as := []Lit{MkLit(q, q%2 == 0), MkLit(q+7, q%3 == 0)}
			p1.ResetSearch(seed + int64(q))
			p4.ResetSearch(seed + int64(q))
			st1, st4 := p1.Solve(as...), p4.Solve(as...)
			if st1 != st4 {
				t.Fatalf("seed %d q%d: p1=%v p4=%v", seed, q, st1, st4)
			}
			if st1 == Sat && !reflect.DeepEqual(p1.Model(), p4.Model()) {
				t.Fatalf("seed %d q%d: models diverge", seed, q)
			}
		}
	}
}

// TestPortfolioUnsatPigeonhole forces real conflict-heavy search (PHP 7→6)
// so restarts fire and clauses circulate through the share pool.
func TestPortfolioUnsatPigeonhole(t *testing.T) {
	addPigeonhole := func(e Engine, holes int) {
		pigeons := holes + 1
		at := func(p, h int) int { return p*holes + h }
		for i := 0; i < pigeons*holes; i++ {
			e.NewVar()
		}
		for p := 0; p < pigeons; p++ {
			row := make([]Lit, holes)
			for h := 0; h < holes; h++ {
				row[h] = MkLit(at(p, h), false)
			}
			e.AddClause(row...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					e.AddClause(MkLit(at(p1, h), true), MkLit(at(p2, h), true))
				}
			}
		}
	}
	p := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: 1}, 4))
	addPigeonhole(p, 6)
	p.ResetSearch(1)
	if st := p.Solve(); st != Unsat {
		t.Fatalf("pigeonhole: got %v, want Unsat", st)
	}
	if p.LastWinner() == 0 {
		t.Fatalf("pigeonhole: no winner recorded")
	}
	// A second identical query after restore must agree.
	p.ResetSearch(1)
	if st := p.Solve(); st != Unsat {
		t.Fatalf("pigeonhole requery: got %v, want Unsat", st)
	}
}

// TestCloneIndependence: a clone must solve identically to its original and
// the two must not share mutable state afterwards.
func TestCloneIndependence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		cls := randomCNF3(seed, 30, 110)
		s := New(seed)
		addAll(s, 30, cls)
		c := s.Clone(seed)
		if s.CNFHash() != c.CNFHash() {
			t.Fatalf("seed %d: clone CNF hash differs", seed)
		}
		st, stc := s.Solve(), c.Solve()
		if st != stc {
			t.Fatalf("seed %d: original=%v clone=%v", seed, st, stc)
		}
		if st == Sat && !reflect.DeepEqual(s.Model(), c.Model()) {
			t.Fatalf("seed %d: clone model differs", seed)
		}
		// Diverge the clone; the original's database must be unaffected.
		if st == Sat {
			m := c.Model()
			block := make([]Lit, 0, 30)
			for v := 0; v < 30; v++ {
				block = append(block, MkLit(v, m[v]))
			}
			nc, h := s.NumClauses(), s.CNFHash()
			c.AddClause(block...)
			if s.NumClauses() != nc || s.CNFHash() != h {
				t.Fatalf("seed %d: clone mutation leaked into original", seed)
			}
			s.ResetSearch(seed)
			if s.Solve() != Sat {
				t.Fatalf("seed %d: original lost satisfiability", seed)
			}
		}
	}
}

// TestRestoreRewindsToBase: after solving (learning clauses), restore must
// bring the database back to its marked extent and replay identically.
func TestRestoreRewindsToBase(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		cls := randomCNF3(seed, 30, 120)
		s := New(seed)
		addAll(s, 30, cls)
		m := s.snapshot()
		nc := s.NumClauses()

		s.ResetSearch(seed)
		first := s.Solve()
		s.restore(m)
		if s.NumClauses() != nc {
			t.Fatalf("seed %d: restore kept %d clauses, want %d", seed, s.NumClauses(), nc)
		}
		s.ResetSearch(seed)
		again := s.Solve()
		if first != again {
			t.Fatalf("seed %d: verdict changed after restore: %v then %v", seed, first, again)
		}
		// Replays must also be stable across repeated restore cycles.
		s.restore(m)
		s.ResetSearch(seed)
		if st := s.Solve(); st != first {
			t.Fatalf("seed %d: second replay diverged: %v", seed, st)
		}
	}
}

// TestRestoreCanonicalizesPartialSearch: cancelling a search mid-way leaves
// permuted watch state; restore must erase any trace of it so the next
// query's model matches an uninterrupted worker's. This is the property
// that makes -portfolio N byte-identical for every N.
func TestRestoreCanonicalizesPartialSearch(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cls := randomCNF3(seed, 30, 124)
		mk := func() (*Solver, mark) {
			s := New(seed)
			addAll(s, 30, cls)
			return s, s.snapshot()
		}
		a, ma := mk()
		b, mb := mk()
		// Worker a is "cancelled" almost immediately; worker b runs free.
		a.MaxConflicts = 3
		a.ResetSearch(seed)
		a.Solve()
		a.MaxConflicts = 0
		b.ResetSearch(seed)
		b.Solve()

		a.restore(ma)
		b.restore(mb)
		a.ResetSearch(seed + 1)
		b.ResetSearch(seed + 1)
		sta, stb := a.Solve(), b.Solve()
		if sta != stb {
			t.Fatalf("seed %d: verdicts diverge after partial search: %v vs %v", seed, sta, stb)
		}
		if sta == Sat && !reflect.DeepEqual(a.Model(), b.Model()) {
			t.Fatalf("seed %d: models diverge after partial search", seed)
		}
	}
}

// TestRestoreDeadWatchDirect: after level-0 units falsify a clause's two
// smallest literals, restore's canonicalization must not park both watches
// on dead literals — the clause would become invisible to propagation and
// the solver would answer Sat with a model falsifying it. This drives the
// Solver-level restore path directly: restore canonicalizes whenever prior
// propagation ran, exactly as Portfolio.AddClause does before every
// addition.
func TestRestoreDeadWatchDirect(t *testing.T) {
	s := New(1)
	lits := make([]Lit, 4)
	for i := range lits {
		lits[i] = MkLit(s.NewVar(), false)
	}
	s.AddClause(lits...)
	contradicted := false
	for _, l := range lits {
		s.restore(s.snapshot())
		if !s.AddClause(l.Neg()) {
			contradicted = true
		}
	}
	if !contradicted {
		if st := s.Solve(); st != Unsat {
			t.Fatalf("(a|b|c|d) & !a & !b & !c & !d: got %v with model %v, want Unsat",
				st, s.Model())
		}
	}
}

// TestRestoreDeadWatchRegression is the review repro for the same bug at the
// Portfolio level: (a|b|c|d) & !a & !b & !c & !d used to come back Sat at
// every portfolio size, with models falsifying (a|b|c|d), because AddClause
// restores (and canonicalizes) all workers before each addition.
func TestRestoreDeadWatchRegression(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		p := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: 1}, n))
		lits := make([]Lit, 4)
		for i := range lits {
			lits[i] = MkLit(p.NewVar(), false)
		}
		p.AddClause(lits...)
		contradicted := false
		for _, l := range lits {
			if !p.AddClause(l.Neg()) {
				contradicted = true
			}
		}
		if !contradicted {
			if st := p.Solve(); st != Unsat {
				t.Fatalf("portfolio-%d: got %v, want Unsat", n, st)
			}
		}
	}
}

// TestSharePoolEmptiedBetweenQueries: pool contents depend on how far
// helpers ran before cancellation, so carrying them across queries would
// make budget-limited helper verdicts depend on earlier queries' race
// timing. Solve must leave the pool empty; clauses injected between queries
// (the oracle teeth seam) stay visible to the next query only.
func TestSharePoolEmptiedBetweenQueries(t *testing.T) {
	p := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: 5}, 4))
	addAll(p, 30, randomCNF3(5, 30, 170))
	p.ResetSearch(5)
	p.Solve()
	if n := p.SharedPool().Size(); n != 0 {
		t.Fatalf("pool holds %d clauses after Solve, want 0", n)
	}
	if !p.SharedPool().Export([]Lit{MkLit(0, false), MkLit(1, false)}) {
		t.Fatal("between-queries export rejected")
	}
	p.ResetSearch(6)
	p.Solve()
	if n := p.SharedPool().Size(); n != 0 {
		t.Fatalf("pool holds %d clauses after second Solve, want 0", n)
	}
}

// TestClauseSharePoisoning documents the failure mode the oracle teeth test
// is built on: an unsound clause in the pool makes an importing worker lie.
func TestClauseSharePoisoning(t *testing.T) {
	cs := NewClauseShare(0, 4)
	if !cs.Export([]Lit{MkLit(0, false)}) {
		t.Fatal("export rejected")
	}
	if cs.Export(make([]Lit, DefaultShareMaxLen+1)) {
		t.Fatal("overlong clause accepted")
	}
	if cs.Size() != 1 {
		t.Fatalf("pool size %d, want 1", cs.Size())
	}
	batch, cur := cs.fetch(0)
	if len(batch) != 1 || cur != 1 {
		t.Fatalf("fetch returned %d clauses, cursor %d", len(batch), cur)
	}
}

// TestPortfolioContextCancel: an already-cancelled outer context must yield
// Unknown and leave the portfolio reusable.
func TestPortfolioContextCancel(t *testing.T) {
	cls := randomCNF3(3, 30, 120)
	p := NewPortfolio(DefaultPortfolioConfigs(Config{Seed: 3}, 4))
	addAll(p, 30, cls)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.SetContext(ctx)
	if st := p.Solve(); st != Unknown {
		t.Fatalf("cancelled solve: got %v, want Unknown", st)
	}
	p.SetContext(context.Background())
	p.ResetSearch(3)
	st := p.Solve()
	if st == Unknown {
		t.Fatalf("portfolio unusable after cancellation")
	}
}

// TestConfigDefaults: the zero config must reproduce New's classic solver.
func TestConfigDefaults(t *testing.T) {
	cls := randomCNF3(7, 30, 120)
	a := New(7)
	b := NewWithConfig(Config{Seed: 7})
	addAll(a, 30, cls)
	addAll(b, 30, cls)
	sta, stb := a.Solve(), b.Solve()
	if sta != stb {
		t.Fatalf("verdicts differ: %v vs %v", sta, stb)
	}
	if sta == Sat && !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatal("models differ between New and zero-config NewWithConfig")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("search effort differs: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestCNFHashDiscriminates: the hash must be stable under cloning and
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

// watchLists copies every literal's watch list out of the solver's arena.
func watchLists(s *Solver) [][]cref {
	out := make([][]cref, len(s.wlist))
	for l, w := range s.wlist {
		out[l] = slices.Clone(s.watches[w.off : w.off+w.n])
	}
	return out
}

// TestRestoreIndependentOfSearchProgress: restore must leave the same state
// whether the previous Solve searched or was cancelled before it began, so a
// portfolio worker 0 pre-empted by a helper's instant Unsat answers the next
// query exactly like a lone solver.
func TestRestoreIndependentOfSearchProgress(t *testing.T) {
	cls := randomCNF3(10, 30, 100)
	build := func() (*Solver, mark) {
		s := New(10)
		addAll(s, 30, cls)
		return s, s.snapshot()
	}
	ran, m1 := build()
	ran.Solve()
	ran.restore(m1)

	cut, m2 := build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cut.SetContext(ctx)
	if st := cut.Solve(); st != Unknown {
		t.Fatalf("cancelled Solve = %v, want Unknown", st)
	}
	cut.SetContext(nil)
	cut.restore(m2)

	if !slices.Equal(ran.arena, cut.arena) || !slices.EqualFunc(watchLists(ran), watchLists(cut), slices.Equal[[]cref]) {
		t.Fatal("clause/watch state after restore depends on how far the previous search ran")
	}
	as := []Lit{MkLit(1, false), MkLit(8, true)}
	ran.ResetSearch(11)
	cut.ResetSearch(11)
	st1, st2 := ran.Solve(as...), cut.Solve(as...)
	if st1 != st2 || st1 == Sat && !reflect.DeepEqual(ran.Model(), cut.Model()) {
		t.Fatalf("next query diverges: %v vs %v", st1, st2)
	}
}
