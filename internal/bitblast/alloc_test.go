package bitblast

import (
	"context"
	"testing"

	"scamv/internal/sat"
)

// clauseCounter is a sat.Engine that stores nothing: it hands out variable
// numbers and counts clauses, so an allocation measured through it is the
// blaster's own.
type clauseCounter struct{ vars, clauses int }

func (c *clauseCounter) NewVar() int                    { c.vars++; return c.vars - 1 }
func (c *clauseCounter) NumVars() int                   { return c.vars }
func (c *clauseCounter) AddClause(lits ...sat.Lit) bool { c.clauses++; return true }
func (c *clauseCounter) BoostVar(int, float64)          {}
func (c *clauseCounter) Solve(...sat.Lit) sat.Status    { return sat.Unknown }
func (c *clauseCounter) Value(int) bool                 { return false }
func (c *clauseCounter) Model() []bool                  { return nil }
func (c *clauseCounter) ResetSearch(int64)              {}
func (c *clauseCounter) SetContext(context.Context)     {}
func (c *clauseCounter) Stats() sat.Stats               { return sat.Stats{} }

// TestGateClausesAllocFree: Tseitin gate clauses reach the solver without
// a heap allocation each. A variadic argument list passed through the
// sat.Engine interface would escape and read as one allocation per clause
// (a 64-bit equality emits over 400 gate clauses, an adder over 1400); the
// blaster's scratch buffer leaves only the circuit's own result vector.
func TestGateClausesAllocFree(t *testing.T) {
	e := &clauseCounter{}
	b := New(e)
	x, y := b.VarBits("x", 64), b.VarBits("y", 64)
	for _, tc := range []struct {
		name string
		max  float64 // allocations of the circuit itself: the adder's sum vector
		run  func()
	}{
		{"eqBits", 0, func() { b.eqBits(x, y) }},
		{"adder", 1, func() { b.adder(x, y, b.f) }},
	} {
		before := e.clauses
		if allocs := testing.AllocsPerRun(100, tc.run); allocs > tc.max {
			t.Errorf("%s: %v allocations per circuit, want at most %v", tc.name, allocs, tc.max)
		}
		if e.clauses == before {
			t.Errorf("%s: no gate clauses emitted", tc.name)
		}
	}
}
