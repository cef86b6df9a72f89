package sat

import (
	"slices"
	"testing"
)

// preGrown returns a solver over nvars variables whose clause arena,
// clause headers and watch lists already have room for far more clauses
// than the allocation guards below add.
func preGrown(nvars int) *Solver {
	s := New(1)
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	s.arena = slices.Grow(s.arena, 1<<14)
	s.heads = slices.Grow(s.heads, 1<<12)
	for l := range s.watches {
		s.watches[l] = slices.Grow(s.watches[l], 64)
	}
	return s
}

// TestAddClauseAllocFree: once the arenas and watch lists have capacity,
// adding a clause — normalization, storage and both watches — allocates
// nothing.
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

// TestAttachAllocFree: attaching a stored clause allocates nothing while its
// two watch lists have capacity.
func TestAttachAllocFree(t *testing.T) {
	s := preGrown(64)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		v := i % 63
		i++
		s.attach(s.pushClause([]Lit{MkLit(v, false), MkLit(v+1, false)}, false))
	})
	if allocs != 0 {
		t.Fatalf("attach: %v allocations per clause, want 0", allocs)
	}
}
