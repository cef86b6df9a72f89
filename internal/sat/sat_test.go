package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTrivialSat(t *testing.T) {
	s := New(1)
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
	if !s.Value(a) {
		t.Fatal("a should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New(1)
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if !s.AddClause(MkLit(a, true)) {
		// Already detected at add time.
		if s.Solve() != Unsat {
			t.Fatal("expected unsat")
		}
		return
	}
	if s.Solve() != Unsat {
		t.Fatal("expected unsat")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// a, (¬a ∨ b), (¬b ∨ c), ..., forces a long chain.
	s := New(1)
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i < n-1; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
	for i := range vars {
		if !s.Value(vars[i]) {
			t.Fatalf("var %d should be true", i)
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	// n+1 pigeons, n holes: classic unsat instance exercising learning.
	const n = 5
	s := New(1)
	// p[i][j]: pigeon i in hole j.
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	// Every pigeon in some hole.
	for i := range p {
		lits := make([]Lit, n)
		for j := range p[i] {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(MkLit(p[i1][j], true), MkLit(p[i2][j], true))
			}
		}
	}
	if s.Solve() != Unsat {
		t.Fatal("pigeonhole should be unsat")
	}
}

func TestDefaultPhaseZero(t *testing.T) {
	// Unconstrained variables should come out false with the default phase,
	// emulating Z3's minimal default models.
	s := New(1)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
	if s.Value(a) && s.Value(b) {
		t.Error("default-phase model should not set both variables")
	}
}

func TestModelEnumeration(t *testing.T) {
	// 3 free variables constrained only by one clause: enumerate all models.
	s := New(1)
	vars := []int{s.NewVar(), s.NewVar(), s.NewVar()}
	s.AddClause(MkLit(vars[0], false), MkLit(vars[1], false), MkLit(vars[2], false))
	count := 0
	seen := map[[3]bool]bool{}
	for s.Solve() == Sat {
		count++
		if count > 10 {
			t.Fatal("too many models")
		}
		var m [3]bool
		block := make([]Lit, 3)
		for i, v := range vars {
			m[i] = s.Value(v)
			block[i] = MkLit(v, s.Value(v))
		}
		if seen[m] {
			t.Fatalf("model %v repeated", m)
		}
		seen[m] = true
		if !s.AddClause(block...) {
			break
		}
	}
	if count != 7 {
		t.Fatalf("expected 7 models of (a∨b∨c), got %d", count)
	}
}

func randomCNF(rng *rand.Rand, nvars, nclauses, width int) [][]Lit {
	cls := make([][]Lit, nclauses)
	for i := range cls {
		c := make([]Lit, width)
		for j := range c {
			c[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
		}
		cls[i] = c
	}
	return cls
}

func bruteForceSat(nvars int, cls [][]Lit) bool {
	for m := 0; m < 1<<uint(nvars); m++ {
		ok := true
		for _, c := range cls {
			cok := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		nvars := 4 + rng.Intn(6)
		cls := randomCNF(rng, nvars, 3+rng.Intn(30), 1+rng.Intn(3))
		s := New(int64(iter))
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		addOK := true
		for _, c := range cls {
			if !s.AddClause(c...) {
				addOK = false
			}
		}
		want := bruteForceSat(nvars, cls)
		var got bool
		if !addOK {
			got = false
		} else {
			got = s.Solve() == Sat
		}
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v", iter, got, want, cls)
		}
		if got {
			// Verify the model actually satisfies the formula.
			for _, c := range cls {
				ok := false
				for _, l := range c {
					v := s.Value(l.Var())
					if l.Sign() {
						v = !v
					}
					if v {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
}

func TestRandomPhaseDiversity(t *testing.T) {
	// With random phases, repeated fresh solves of an underconstrained
	// formula should produce diverse models.
	distinct := map[uint32]bool{}
	for seed := int64(0); seed < 20; seed++ {
		s := New(seed)
		s.RandomPhaseProb = 1.0
		vars := make([]int, 16)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		s.AddClause(MkLit(vars[0], false), MkLit(vars[1], false))
		if s.Solve() != Sat {
			t.Fatal("expected sat")
		}
		var sig uint32
		for i, v := range vars {
			if s.Value(v) {
				sig |= 1 << uint(i)
			}
		}
		distinct[sig] = true
	}
	if len(distinct) < 5 {
		t.Errorf("expected diverse models, got %d distinct", len(distinct))
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(int64(i)); g != w {
			t.Fatalf("luby(%d) = %d, want %d", i, g, w)
		}
	}
}

func TestMaxConflicts(t *testing.T) {
	// A hard instance with a tiny conflict budget returns Unknown.
	const n = 7
	s := New(1)
	s.MaxConflicts = 3
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := range p {
		lits := make([]Lit, n)
		for j := range p[i] {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(MkLit(p[i1][j], true), MkLit(p[i2][j], true))
			}
		}
	}
	if got := s.Solve(); got != Unknown {
		t.Fatalf("expected unknown under conflict budget, got %v", got)
	}
}

// TestAddClauseNormalization pins AddClause's clause normalization: later
// duplicates dropped in first-occurrence order, level-0-false literals
// dropped, tautologies and level-0-satisfied clauses discarded — and no
// clause's bookkeeping leaking into the next AddClause.
func TestAddClauseNormalization(t *testing.T) {
	s := New(1)
	var v [6]Lit
	for i := range v {
		v[i] = MkLit(s.NewVar(), false)
	}
	a, b, c, x, y, z := v[0], v[1], v[2], v[3], v[4], v[5]
	s.AddClause(x)       // x true at level 0
	s.AddClause(y.Neg()) // y false at level 0
	last := func() []Lit {
		return append([]Lit(nil), s.clauseLits(cref(s.NumClauses()-1))...)
	}
	cases := []struct {
		name string
		add  []Lit
		want []Lit // nil: no clause stored
	}{
		{"duplicates", []Lit{b, a, b, c, a, b}, []Lit{b, a, c}},
		{"tautology", []Lit{a, b, c, a.Neg()}, nil},
		{"after tautology", []Lit{a.Neg(), c}, []Lit{a.Neg(), c}},
		{"satisfied", []Lit{b, c.Neg(), x}, nil},
		{"after satisfied", []Lit{c, b.Neg()}, []Lit{c, b.Neg()}},
		{"false literal", []Lit{y, z, a, y, z.Neg()}, nil},
		{"after false", []Lit{y, z.Neg(), a.Neg(), z.Neg()}, []Lit{z.Neg(), a.Neg()}},
	}
	for _, tc := range cases {
		before := s.NumClauses()
		if !s.AddClause(tc.add...) {
			t.Fatalf("%s: AddClause reported unsat", tc.name)
		}
		switch {
		case tc.want == nil && s.NumClauses() != before:
			t.Errorf("%s: stored %v, want no clause", tc.name, last())
		case tc.want != nil && s.NumClauses() != before+1:
			t.Errorf("%s: stored no clause, want %v", tc.name, tc.want)
		case tc.want != nil && !slices.Equal(last(), tc.want):
			t.Errorf("%s: stored %v, want %v", tc.name, last(), tc.want)
		}
	}
}
