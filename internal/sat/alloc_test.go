package sat

import (
	"slices"
	"testing"
)

// preGrown returns a solver over nvars variables whose clause arena,
// clause headers and watch arena already have room for far more clauses
// than the allocation guards below add.
func preGrown(nvars int) *Solver {
	s := New(1)
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	s.arena = slices.Grow(s.arena, 1<<14)
	s.heads = slices.Grow(s.heads, 1<<12)
	s.watches = slices.Grow(s.watches, 1<<16)
	return s
}

// TestAddClauseAllocFree: once the arenas have capacity, adding a clause —
// normalization, storage and both watches — allocates nothing.
func TestAddClauseAllocFree(t *testing.T) {
	s := preGrown(64)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		v := i % 61
		i++
		if !s.AddClause(MkLit(v, false), MkLit(v+1, true), MkLit(v+2, false)) {
			t.Fatal("satisfiable clause reported unsat")
		}
	})
	if allocs != 0 {
		t.Fatalf("AddClause: %v allocations per clause, want 0", allocs)
	}
}

// TestAttachAllocFree: attaching a stored clause allocates nothing while the
// watch arena has capacity, including when a full watch list moves to the
// arena's end.
func TestAttachAllocFree(t *testing.T) {
	s := preGrown(64)
	i := 0
	moved := false
	allocs := testing.AllocsPerRun(500, func() {
		v := i % 63
		i++
		l := MkLit(v, true) // the first watch goes on the list of ¬(v, false)
		off := s.wlist[l].off
		had := s.wlist[l].cap > 0
		s.attach(s.pushClause([]Lit{MkLit(v, false), MkLit(v+1, false)}, false))
		moved = moved || had && s.wlist[l].off != off
	})
	if allocs != 0 {
		t.Fatalf("attach: %v allocations per clause, want 0", allocs)
	}
	if !moved {
		t.Fatal("no watch list moved; the guard did not exercise relocation")
	}
}

// TestWatchArenaKeepsListOrder: watch lists that move to the arena's end or
// grow in place there keep their entries in insertion order, which is what
// makes propagation order, and so every search, independent of the layout.
func TestWatchArenaKeepsListOrder(t *testing.T) {
	s := New(1)
	for i := 0; i < 40; i++ {
		s.NewVar()
	}
	want := make([][]cref, 2*s.NumVars())
	moved, grewInPlace := false, false
	for ci := cref(0); ci < 4000; ci++ {
		l := Lit((int(ci)*7 + int(ci)/13) % len(want))
		if ci >= 2000 && ci < 2200 {
			l = 3 // a run on one literal: once its list ends the arena it grows there
		}
		before := s.wlist[l]
		s.watch(l, ci)
		after := s.wlist[l]
		if before.n == before.cap && before.cap > 0 {
			moved = moved || after.off != before.off
			grewInPlace = grewInPlace || after.off == before.off
		}
		want[l] = append(want[l], ci)
	}
	for l, ws := range watchLists(s) {
		if !slices.Equal(ws, want[l]) {
			t.Fatalf("literal %d: watch list %v, want %v", l, ws, want[l])
		}
	}
	if !moved || !grewInPlace {
		t.Fatalf("relocation exercised %v, in-place growth %v; want both", moved, grewInPlace)
	}
}

// TestResetEncodeAllocFree: re-encoding a CNF of the same size on a Reset
// solver allocates nothing; every slice keeps the capacity it grew to.
func TestResetEncodeAllocFree(t *testing.T) {
	const nVars = 150
	cls := randomCNF3(7, nVars, 540)
	s := New(7)
	addAll(s, nVars, cls)
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset(7)
		addAll(s, nVars, cls)
	})
	if allocs != 0 {
		t.Fatalf("Reset and re-encode: %v allocations, want 0", allocs)
	}
}

// TestOversized: a solver grown from New is never oversized, small or
// large; after Reset and a CNF far smaller than the one it held,
// it is, and once it holds a CNF of the old size again it is not.
func TestOversized(t *testing.T) {
	big, small := randomCNF3(3, 2000, 7200), randomCNF3(4, 40, 150)
	s := New(3)
	for nVars, cls := range map[int][][]Lit{2000: big, 40: small} {
		s := New(3)
		addAll(s, nVars, cls)
		if s.Oversized() {
			t.Fatalf("fresh solver over %d variables reads oversized", nVars)
		}
	}
	addAll(s, 2000, big)
	s.Reset(3)
	addAll(s, 40, small)
	if !s.Oversized() {
		t.Fatal("solver that held 2000 variables reads not oversized over 40")
	}
	s.Reset(3)
	addAll(s, 2000, big)
	if s.Oversized() {
		t.Fatal("solver back at its old size reads oversized")
	}
}
