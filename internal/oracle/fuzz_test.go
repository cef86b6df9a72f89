package oracle

import (
	"errors"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/expr"
	"scamv/internal/sat"
	"scamv/internal/smt"
)

// FuzzSATOracle differentially tests the CDCL solver against the brute-force
// oracle on fuzzer-shaped CNFs, both through the one-shot DiffSAT path and
// through an incremental flow on one solver instance: assumption solve,
// ResetSearch, global solve, then the model blocked and solved again before
// and after another ResetSearch, and a model blocked twice and pinned by a
// unit clause, solved again before and after a ResetSearch. Failures are
// minimized with ShrinkCNF before reporting.
func FuzzSATOracle(f *testing.F) {
	f.Add([]byte("sat-oracle"))
	f.Add([]byte("\x05\x08abcdefghijklmnop"))
	f.Add([]byte("\x00\x17" + "the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, clauses, assumptions := DecodeCNF(data)
		if err := DiffSAT(nVars, clauses, assumptions, CDCLSolve(1)); err != nil {
			sv, sc := ShrinkCNF(nVars, clauses, func(nv int, cs [][]sat.Lit) bool {
				return DiffSAT(nv, cs, nil, CDCLSolve(1)) != nil
			})
			t.Fatalf("%v\nshrunk: %d vars, clauses %v", err, sv, sc)
		}

		// Incremental flow on one solver: assumption-scoped solve, then
		// ResetSearch, then an unscoped solve — each verdict cross-checked.
		s := sat.New(2)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		bst, _ := BruteSolve(nVars, clauses)
		if !ok {
			if bst != sat.Unsat {
				t.Fatalf("AddClause reported top-level conflict but brute says %v", bst)
			}
			return
		}
		ast, _ := BruteSolve(nVars, clauses, assumptions...)
		if got := s.Solve(assumptions...); got != ast {
			t.Fatalf("assumption solve: cdcl %v vs brute %v", got, ast)
		}
		s.ResetSearch(3)
		if got := s.Solve(); got != bst {
			t.Fatalf("post-reset solve: cdcl %v vs brute %v", got, bst)
		}
		if bst != sat.Sat {
			return
		}
		model := s.Model()[:nVars]
		if !CNFSatisfied(clauses, model) {
			t.Fatalf("post-reset model falsifies a clause")
		}

		// Enumeration: block the model, solve again without ResetSearch
		// (the backtrack's heap inserts are still queued), then ResetSearch
		// and solve once more; both verdicts must match brute force over
		// the clauses plus the blocking clause.
		block := make([]sat.Lit, nVars)
		for v, val := range model {
			block[v] = sat.MkLit(v, val)
		}
		s.AddClause(block...)
		blocked := append(clauses[:len(clauses):len(clauses)], block)
		if !solveTwice(t, s, nVars, blocked, "blocked solve") {
			return
		}

		// The model the last solve left on the trail, blocked twice (on
		// every variable, then on the even ones) and then pinned by a unit
		// clause it falsifies: AddClause leaves the backtrack owed until the
		// unit, and ResetSearch undoes the next model in place.
		model = s.Model()[:nVars]
		var all, even []sat.Lit
		for v, val := range model {
			all = append(all, sat.MkLit(v, val))
			if v%2 == 0 {
				even = append(even, sat.MkLit(v, val))
			}
		}
		pin := len(data) % nVars
		for _, c := range [][]sat.Lit{all, even, {sat.MkLit(pin, model[pin])}} {
			s.AddClause(c...)
			blocked = append(blocked, c)
		}
		solveTwice(t, s, nVars, blocked, "twice-blocked and pinned solve")
	})
}

// solveTwice solves s once as it is and once after a ResetSearch, and
// requires each verdict to be BruteSolve's over clauses, every clause s
// has been given, and each model to satisfy them. It reports whether the
// second solve found a model.
func solveTwice(t *testing.T, s *sat.Solver, nVars int, clauses [][]sat.Lit, step string) bool {
	t.Helper()
	want, _ := BruteSolve(nVars, clauses)
	var got sat.Status
	for i, step := range []string{step, step + " after ResetSearch"} {
		if i == 1 {
			s.ResetSearch(4)
		}
		got = s.Solve()
		if got != want {
			t.Fatalf("%s: cdcl %v vs brute %v", step, got, want)
		}
		if got == sat.Sat && !CNFSatisfied(clauses, s.Model()[:nVars]) {
			t.Fatalf("%s: model falsifies a clause", step)
		}
	}
	return got == sat.Sat
}

// FuzzSMTModelSoundness asserts fuzzer-shaped bitvector+memory formulas and
// validates every Sat model by concrete evaluation of the original formulas —
// seeing through Ackermann read elimination and bit-blasting. Unsat verdicts
// get a one-sided check: a handful of concrete assignments must each falsify
// at least one assertion.
func FuzzSMTModelSoundness(f *testing.F) {
	f.Add([]byte("smt-model"))
	f.Add([]byte("\x05\x05\x05read-over-write-chain"))
	f.Add([]byte("\xff\x01never written address"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := DecodeSMTCheck(data)
		s := smt.New(smt.Options{Seed: 1, MaxConflicts: 50000})
		for _, fm := range fs {
			s.Assert(fm)
		}
		switch s.Check() {
		case sat.Sat:
			if err := CheckSMTModel(s.Model(), fs...); err != nil {
				t.Fatal(err)
			}
		case sat.Unsat:
			vars := make(map[string]uint)
			for _, fm := range fs {
				varWidths(fm, vars)
			}
			for _, word := range []uint64{0, 1, 0x80, ^uint64(0)} {
				a := expr.NewAssignment()
				for name := range vars {
					a.BV[name] = word
				}
				allTrue := true
				for _, fm := range fs {
					if !a.EvalBool(fm) {
						allTrue = false
						break
					}
				}
				if allTrue {
					t.Fatalf("solver said Unsat but assignment word=%#x satisfies all %d assertions", word, len(fs))
				}
			}
		}
	})
}

// FuzzBitblastVsEval cross-checks the Tseitin bit-blaster against the direct
// 64-bit evaluator on fuzzer-shaped expressions and assignments.
func FuzzBitblastVsEval(f *testing.F) {
	f.Add([]byte("bitblast"))
	f.Add([]byte("\x03\x02extract-extend-ite"))
	f.Add([]byte("\x05\x01\x02narrow widths and shifts"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bv, bo, a := DecodeExprCheck(data)
		if err := EvalVsBlast(bv, a); err != nil {
			t.Fatal(err)
		}
		if err := EvalVsBlastBool(bo, a); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzMatrixDiff differentially executes fuzzer-shaped structured programs
// against every platform preset of the microarchitecture zoo: the final
// architectural state must agree with the lifter + symbolic executor on all
// of them, since predictors, prefetchers, replacement policies, and
// speculation windows are microarchitectural only. Divergences are shrunk
// against the full matrix before reporting.
func FuzzMatrixDiff(f *testing.F) {
	f.Add([]byte("matrix-diff"))
	f.Add([]byte("\x02\x01loads stores and branches"))
	f.Add([]byte("\x03\x02\x01\x00compare and branch over body"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, regs, mem := DecodeProgram(data)
		err := DiffProgramMatrix(p, regs, mem, nil)
		if err == nil {
			return
		}
		var mm *Mismatch
		if errors.As(err, &mm) {
			small := ShrinkProgram(p, func(q *arm.Program) bool {
				var m *Mismatch
				return errors.As(DiffProgramMatrix(q, regs, mem, nil), &m)
			})
			t.Fatalf("%v\nshrunk repro:\n%s", err, small)
		}
		t.Fatal(err)
	})
}

// FuzzLifterVsMicro differentially executes fuzzer-shaped structured programs
// through the lifter + symbolic executor and through the microarchitectural
// simulator, comparing final registers and memory. A divergence is shrunk to
// a minimal program before reporting.
func FuzzLifterVsMicro(f *testing.F) {
	f.Add([]byte("lifter-vs-micro"))
	f.Add([]byte("\x02\x01loads stores and branches"))
	f.Add([]byte("\x03\x02\x01\x00compare and branch over body"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, regs, mem := DecodeProgram(data)
		err := DiffProgram(p, regs, mem, nil)
		if err == nil {
			return
		}
		var mm *Mismatch
		if errors.As(err, &mm) {
			small := ShrinkProgram(p, func(q *arm.Program) bool {
				var m *Mismatch
				return errors.As(DiffProgram(q, regs, mem, nil), &m)
			})
			t.Fatalf("%v\nshrunk repro:\n%s", err, small)
		}
		t.Fatal(err)
	})
}
