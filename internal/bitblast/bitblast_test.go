package bitblast

import (
	"math/rand"
	"testing"

	"scamv/internal/expr"
	"scamv/internal/sat"
)

// solveEq asserts e and returns a model assignment for the named variables.
func solveEq(t *testing.T, e expr.BoolExpr, names map[string]uint) (map[string]uint64, bool) {
	t.Helper()
	s := sat.New(1)
	b := New(s)
	b.Assert(e)
	if s.Solve() != sat.Sat {
		return nil, false
	}
	out := make(map[string]uint64)
	for n := range names {
		out[n] = b.VarValue(n)
	}
	return out, true
}

func TestAssertSimpleEquality(t *testing.T) {
	x := expr.NewVar("x", 16)
	m, ok := solveEq(t, expr.Eq(x, expr.NewConst(0xbeef, 16)), map[string]uint{"x": 16})
	if !ok || m["x"] != 0xbeef {
		t.Fatalf("m=%v ok=%v", m, ok)
	}
}

func TestUnsatDetected(t *testing.T) {
	x := expr.NewVar("x", 8)
	s := sat.New(1)
	b := New(s)
	b.Assert(expr.Eq(x, expr.NewConst(1, 8)))
	b.Assert(expr.Eq(x, expr.NewConst(2, 8)))
	// The solver is unsat at level 0 now: later assertions encode nothing.
	vars, clauses := s.NumVars(), s.NumClauses()
	y := expr.NewVar("y", 8)
	b.Assert(expr.Ult(expr.Mul(x, y), expr.NewConst(9, 8)))
	b.AssertImplied(sat.MkLit(0, false), expr.Eq(y, expr.NewConst(3, 8)))
	if s.NumVars() != vars || s.NumClauses() != clauses {
		t.Fatalf("asserting into an unsat solver grew it from %d vars / %d clauses to %d / %d",
			vars, clauses, s.NumVars(), s.NumClauses())
	}
	if s.Solve() != sat.Unsat {
		t.Fatal("expected unsat")
	}
}

// randomBV builds a random bitvector expression over the variables a, b of
// the given width, with bounded depth.
func randomBV(rng *rand.Rand, w uint, depth int) expr.BVExpr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.NewVar("a", w)
		case 1:
			return expr.NewVar("b", w)
		default:
			return expr.NewConst(rng.Uint64(), w)
		}
	}
	x := randomBV(rng, w, depth-1)
	y := randomBV(rng, w, depth-1)
	switch rng.Intn(12) {
	case 0:
		return expr.Add(x, y)
	case 1:
		return expr.Sub(x, y)
	case 2:
		return expr.And(x, y)
	case 3:
		return expr.Or(x, y)
	case 4:
		return expr.Xor(x, y)
	case 5:
		return expr.Not(x)
	case 6:
		return expr.Neg(x)
	case 7:
		return expr.Shl(x, expr.NewConst(uint64(rng.Intn(int(w)+2)), w))
	case 8:
		return expr.Lshr(x, expr.NewConst(uint64(rng.Intn(int(w)+2)), w))
	case 9:
		return expr.Ashr(x, expr.NewConst(uint64(rng.Intn(int(w)+2)), w))
	case 10:
		return expr.NewIte(expr.Ult(x, y), x, y)
	default:
		return expr.Mul(x, y)
	}
}

func randomBool(rng *rand.Rand, w uint, depth int) expr.BoolExpr {
	x := randomBV(rng, w, depth)
	y := randomBV(rng, w, depth)
	switch rng.Intn(5) {
	case 0:
		return expr.Eq(x, y)
	case 1:
		return expr.Ult(x, y)
	case 2:
		return expr.Ule(x, y)
	case 3:
		return expr.Slt(x, y)
	default:
		return expr.Sle(x, y)
	}
}

// TestBlastAgainstEvaluator is the core soundness property of the
// bit-blaster: for random formulas F and random concrete inputs (a, b),
// the CNF encoding of F ∧ a = A ∧ b = B is satisfiable exactly when the
// structural evaluator says F(A, B) holds.
func TestBlastAgainstEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	widths := []uint{1, 7, 8, 13, 32, 64}
	for iter := 0; iter < 300; iter++ {
		w := widths[rng.Intn(len(widths))]
		f := randomBool(rng, w, 3)
		av := rng.Uint64() & maskOf(w)
		bv := rng.Uint64() & maskOf(w)

		assign := expr.NewAssignment()
		assign.BV["a"], assign.BV["b"] = av, bv
		want := assign.EvalBool(f)

		s := sat.New(int64(iter))
		bl := New(s)
		bl.Assert(f)
		bl.Assert(expr.Eq(expr.NewVar("a", w), expr.NewConst(av, w)))
		bl.Assert(expr.Eq(expr.NewVar("b", w), expr.NewConst(bv, w)))
		got := s.Solve() == sat.Sat
		if got != want {
			t.Fatalf("iter %d (w=%d): blast=%v eval=%v for %s with a=%#x b=%#x",
				iter, w, got, want, f, av, bv)
		}
	}
}

// TestBlastModelsEvaluateTrue: every model the solver produces for a random
// formula must satisfy the formula under the structural evaluator.
func TestBlastModelsEvaluateTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < 200; iter++ {
		w := []uint{4, 8, 16, 64}[rng.Intn(4)]
		f := randomBool(rng, w, 3)
		s := sat.New(int64(iter))
		bl := New(s)
		bl.Assert(f)
		if s.Solve() != sat.Sat {
			continue // genuinely unsat formulas are fine
		}
		assign := expr.NewAssignment()
		assign.BV["a"] = bl.VarValue("a")
		assign.BV["b"] = bl.VarValue("b")
		if !assign.EvalBool(f) {
			t.Fatalf("iter %d: model a=%#x b=%#x does not satisfy %s",
				iter, assign.BV["a"], assign.BV["b"], f)
		}
	}
}

func maskOf(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func TestVariableWidthConsistency(t *testing.T) {
	s := sat.New(1)
	b := New(s)
	b.VarBits("x", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	b.VarBits("x", 16)
}

func TestBoolVars(t *testing.T) {
	p := expr.NewBoolVar("p")
	q := expr.NewBoolVar("q")
	s := sat.New(1)
	b := New(s)
	b.Assert(expr.AndB(expr.OrB(p, q), expr.NotB(p)))
	if s.Solve() != sat.Sat {
		t.Fatal("expected sat")
	}
	if b.BoolVarValue("p") || !b.BoolVarValue("q") {
		t.Fatalf("p=%v q=%v", b.BoolVarValue("p"), b.BoolVarValue("q"))
	}
}

func TestSharedSubtreesEncodedOnce(t *testing.T) {
	// The same subtree asserted twice must not duplicate CNF variables.
	x := expr.NewVar("x", 32)
	shared := expr.Add(x, expr.NewConst(1, 32))
	s := sat.New(1)
	b := New(s)
	b.Assert(expr.Ult(shared, expr.NewConst(100, 32)))
	n1 := s.NumVars()
	b.Assert(expr.Ult(shared, expr.NewConst(50, 32))) // reuses shared + x
	n2 := s.NumVars()
	// Only the new comparator's gates should be added, far fewer than a
	// fresh adder encoding.
	if n2-n1 > 200 {
		t.Errorf("no structural sharing: %d new vars", n2-n1)
	}
}

func TestBarrelShifterSymbolicAmount(t *testing.T) {
	// x << s = 0x100 with both x and s symbolic.
	x := expr.NewVar("x", 16)
	sh := expr.NewVar("s", 16)
	s := sat.New(1)
	b := New(s)
	b.Assert(expr.Eq(expr.Shl(x, sh), expr.NewConst(0x100, 16)))
	b.Assert(expr.Ult(expr.NewConst(0, 16), sh)) // nonzero shift
	if s.Solve() != sat.Sat {
		t.Fatal("expected sat")
	}
	xv, sv := b.VarValue("x"), b.VarValue("s")
	if sv == 0 || sv >= 16 || (xv<<sv)&0xffff != 0x100 {
		t.Fatalf("bad model x=%#x s=%d", xv, sv)
	}
}

func TestOverShift(t *testing.T) {
	// Shifting by >= width must yield zero (logical) on the CNF side too.
	x := expr.NewVar("x", 8)
	s := sat.New(1)
	b := New(s)
	b.Assert(expr.Eq(x, expr.NewConst(0xff, 8)))
	b.Assert(expr.Neq(expr.Shl(x, expr.NewConst(9, 8)), expr.NewConst(0, 8)))
	if s.Solve() != sat.Unsat {
		t.Fatal("overshift must be zero")
	}
}
