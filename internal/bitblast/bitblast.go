// Package bitblast translates bitvector and boolean expressions from
// internal/expr into CNF over an internal/sat solver, using Tseitin
// encoding with structural caching and constant propagation at the literal
// level.
//
// Memory expressions are not handled here; internal/smt eliminates memory
// reads (read-over-write rewriting plus Ackermann expansion) before blasting.
package bitblast

import (
	"fmt"

	"scamv/internal/expr"
	"scamv/internal/sat"
)

// Blaster incrementally encodes expressions into a SAT solver. Identical
// subtrees are encoded once: every expression entering the blaster is first
// hash-consed through an expr.Interner, so the pointer-keyed CNF caches hit
// for structurally identical terms even when they were built independently
// (e.g. the same observation address renamed once per incremental query).
type Blaster struct {
	// S is the backing solver — a single sat.Solver or a sat.Portfolio; the
	// blaster only needs the Engine surface (NewVar/AddClause/BoostVar/Value).
	S sat.Engine

	t, f sat.Lit // constant true / false literals

	intern    *expr.Interner
	bvCache   map[expr.BVExpr][]sat.Lit
	boolCache map[expr.BoolExpr]sat.Lit
	varBits   map[string][]sat.Lit
	boolVars  map[string]sat.Lit

	// parent, when set, is a frozen blaster whose caches serve as read-only
	// fallback layers (see CloneOnto). Cache writes always go to this
	// blaster's own maps.
	parent *Blaster

	// dead is set once a clause addition reports the formula unsatisfiable
	// at decision level 0. That verdict is final, so Assert and
	// AssertImplied stop encoding into the solver from then on.
	dead bool
	// cls holds the clause being added. Passing a slice of it through the
	// Engine interface costs nothing, where a variadic argument list would
	// escape to the heap on every gate clause.
	cls [3]sat.Lit

	stats CacheStats
}

// CacheStats counts hash-consed CNF cache traffic: a hit means a subtree was
// asserted again (e.g. the same observation address renamed per incremental
// query) and cost nothing; a miss means fresh Tseitin clauses were emitted.
// The hit ratio is the payoff of the shared-prefix solver reuse and is
// surfaced per query by the telemetry layer via smt.Solver.Stats.
type CacheStats struct {
	BVHits, BVMisses     int64
	BoolHits, BoolMisses int64
}

// Hits is the total cache-hit count across both expression sorts.
func (c CacheStats) Hits() int64 { return c.BVHits + c.BoolHits }

// Misses is the total cache-miss count across both expression sorts.
func (c CacheStats) Misses() int64 { return c.BVMisses + c.BoolMisses }

// CacheStats snapshots the blast-cache counters.
func (b *Blaster) CacheStats() CacheStats { return b.stats }

// New returns a Blaster over solver s.
func New(s sat.Engine) *Blaster {
	b := &Blaster{
		S:         s,
		intern:    expr.NewInterner(),
		bvCache:   make(map[expr.BVExpr][]sat.Lit),
		boolCache: make(map[expr.BoolExpr]sat.Lit),
		varBits:   make(map[string][]sat.Lit),
		boolVars:  make(map[string]sat.Lit),
	}
	b.t = b.newLit()
	b.f = b.t.Neg()
	b.clause1(b.t)
	return b
}

// CloneOnto returns a blaster over eng that reuses this blaster's encoding
// work: the interner and both CNF caches become read-only parent layers, so
// everything already blasted here resolves to the same literals without
// copying the (large) maps. eng must hold the same variable space as this
// blaster's solver — in practice a sat.Solver.Clone of it, or a portfolio
// built from such clones. After the first CloneOnto this blaster must stay
// frozen (no further Assert/BV/Bool calls); concurrent clones of one frozen
// blaster are then safe, which is what the campaign shape cache relies on.
//
// Cache statistics start at zero in the clone: hits against the parent
// layers count as hits of the clone.
func (b *Blaster) CloneOnto(eng sat.Engine) *Blaster {
	nb := &Blaster{
		S:         eng,
		t:         b.t,
		f:         b.f,
		intern:    b.intern.NewChild(),
		bvCache:   make(map[expr.BVExpr][]sat.Lit),
		boolCache: make(map[expr.BoolExpr]sat.Lit),
		varBits:   make(map[string][]sat.Lit, len(b.varBits)),
		boolVars:  make(map[string]sat.Lit, len(b.boolVars)),
		parent:    b,
		dead:      b.dead,
	}
	// Variable registries are small (one entry per named variable) and are
	// consulted on hot read paths; copy them flat. The bit slices themselves
	// are immutable and shared.
	for p := b; p != nil; p = p.parent {
		for name, bits := range p.varBits {
			if _, ok := nb.varBits[name]; !ok {
				nb.varBits[name] = bits
			}
		}
		for name, l := range p.boolVars {
			if _, ok := nb.boolVars[name]; !ok {
				nb.boolVars[name] = l
			}
		}
	}
	return nb
}

func (b *Blaster) newLit() sat.Lit { return sat.MkLit(b.S.NewVar(), false) }

func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.t
	}
	return b.f
}

// add hands the first n literals of b.cls to the solver as one clause.
func (b *Blaster) add(n int) {
	if !b.S.AddClause(b.cls[:n]...) {
		b.dead = true
	}
}

func (b *Blaster) clause1(x sat.Lit) {
	b.cls[0] = x
	b.add(1)
}

func (b *Blaster) clause2(x, y sat.Lit) {
	b.cls[0], b.cls[1] = x, y
	b.add(2)
}

func (b *Blaster) clause3(x, y, z sat.Lit) {
	b.cls[0], b.cls[1], b.cls[2] = x, y, z
	b.add(3)
}

func (b *Blaster) isTrue(l sat.Lit) bool  { return l == b.t }
func (b *Blaster) isFalse(l sat.Lit) bool { return l == b.f }

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

func (b *Blaster) and2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y) || x == y.Neg():
		return b.f
	case b.isTrue(x):
		return y
	case b.isTrue(y), x == y:
		return x
	}
	c := b.newLit()
	b.clause2(c.Neg(), x)
	b.clause2(c.Neg(), y)
	b.clause3(c, x.Neg(), y.Neg())
	return c
}

func (b *Blaster) or2(x, y sat.Lit) sat.Lit {
	return b.and2(x.Neg(), y.Neg()).Neg()
}

func (b *Blaster) xor2(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return y.Neg()
	case b.isTrue(y):
		return x.Neg()
	case x == y:
		return b.f
	case x == y.Neg():
		return b.t
	}
	c := b.newLit()
	b.clause3(c.Neg(), x, y)
	b.clause3(c.Neg(), x.Neg(), y.Neg())
	b.clause3(c, x, y.Neg())
	b.clause3(c, x.Neg(), y)
	return c
}

// mux returns sel ? x : y.
func (b *Blaster) mux(sel, x, y sat.Lit) sat.Lit {
	switch {
	case b.isTrue(sel):
		return x
	case b.isFalse(sel):
		return y
	case x == y:
		return x
	}
	if b.isTrue(x) {
		return b.or2(sel, y)
	}
	if b.isFalse(x) {
		return b.and2(sel.Neg(), y)
	}
	if b.isTrue(y) {
		return b.or2(sel.Neg(), x)
	}
	if b.isFalse(y) {
		return b.and2(sel, x)
	}
	c := b.newLit()
	b.clause3(c.Neg(), sel.Neg(), x)
	b.clause3(c, sel.Neg(), x.Neg())
	b.clause3(c.Neg(), sel, y)
	b.clause3(c, sel, y.Neg())
	return c
}

// maj3 returns the majority of x, y, z.
func (b *Blaster) maj3(x, y, z sat.Lit) sat.Lit {
	return b.or2(b.and2(x, y), b.or2(b.and2(x, z), b.and2(y, z)))
}

func (b *Blaster) xor3(x, y, z sat.Lit) sat.Lit {
	return b.xor2(b.xor2(x, y), z)
}

func (b *Blaster) andN(ls []sat.Lit) sat.Lit {
	acc := b.t
	for _, l := range ls {
		acc = b.and2(acc, l)
	}
	return acc
}

func (b *Blaster) orN(ls []sat.Lit) sat.Lit {
	acc := b.f
	for _, l := range ls {
		acc = b.or2(acc, l)
	}
	return acc
}

// ---------------------------------------------------------------------------
// Bitvectors
// ---------------------------------------------------------------------------

// VarBits returns (allocating if needed) the literal vector of the named
// bitvector variable, LSB first.
func (b *Blaster) VarBits(name string, w uint) []sat.Lit {
	if bits, ok := b.varBits[name]; ok {
		if uint(len(bits)) != w {
			panic(fmt.Sprintf("bitblast: variable %s used at widths %d and %d", name, len(bits), w))
		}
		return bits
	}
	bits := make([]sat.Lit, w)
	for i := range bits {
		bits[i] = b.newLit()
		// Boost input bits so they are decided early with the zero default
		// phase (Z3-like minimal models), high-order bits first: CDCL model
		// enumeration then churns the low-order bits, keeping successive
		// models of underconstrained formulas numerically close — the
		// "too similar to invalidate the model" behaviour of unguided
		// search that motivates observation refinement.
		b.S.BoostVar(bits[i].Var(), 0.5+float64(i)*0.05)
	}
	b.varBits[name] = bits
	return bits
}

// HasVar reports whether the named bitvector variable was encoded.
func (b *Blaster) HasVar(name string) bool {
	_, ok := b.varBits[name]
	return ok
}

// VarValue reads the value of the named variable from the solver's current
// model. It returns 0 for variables that never appeared in any asserted
// formula (they are unconstrained).
func (b *Blaster) VarValue(name string) uint64 {
	bits, ok := b.varBits[name]
	if !ok {
		return 0
	}
	return b.litsValue(bits)
}

// Value reads the model word of a blasted literal vector (as returned by
// BV), LSB first. Callers cross-checking the circuit against direct
// evaluation (internal/oracle) use it to observe arbitrary encoded
// subexpressions, not just named variables.
func (b *Blaster) Value(bits []sat.Lit) uint64 { return b.litsValue(bits) }

func (b *Blaster) litsValue(bits []sat.Lit) uint64 {
	var v uint64
	for i, l := range bits {
		lv := b.S.Value(l.Var())
		if l.Sign() {
			lv = !lv
		}
		if lv {
			v |= 1 << uint(i)
		}
	}
	return v
}

// BV encodes a bitvector expression, returning its literal vector LSB first.
func (b *Blaster) BV(e expr.BVExpr) []sat.Lit {
	e = b.intern.Intern(e).(expr.BVExpr)
	for p := b; p != nil; p = p.parent {
		if bits, ok := p.bvCache[e]; ok {
			b.stats.BVHits++
			return bits
		}
	}
	b.stats.BVMisses++
	bits := b.bv(e)
	b.bvCache[e] = bits
	return bits
}

func (b *Blaster) bv(e expr.BVExpr) []sat.Lit {
	switch v := e.(type) {
	case *expr.Const:
		bits := make([]sat.Lit, v.W)
		for i := range bits {
			bits[i] = b.constLit(v.V>>uint(i)&1 == 1)
		}
		return bits
	case *expr.Var:
		return b.VarBits(v.Name, v.W)
	case *expr.Bin:
		x, y := b.BV(v.X), b.BV(v.Y)
		switch v.Op {
		case expr.OpAdd:
			s, _ := b.adder(x, y, b.f)
			return s
		case expr.OpSub:
			s, _ := b.adder(x, b.notBits(y), b.t)
			return s
		case expr.OpMul:
			return b.multiplier(x, y)
		case expr.OpAnd:
			return b.mapBits2(x, y, b.and2)
		case expr.OpOr:
			return b.mapBits2(x, y, b.or2)
		case expr.OpXor:
			return b.mapBits2(x, y, b.xor2)
		case expr.OpShl:
			return b.shifter(x, y, shiftLeft, b.f)
		case expr.OpLshr:
			return b.shifter(x, y, shiftRight, b.f)
		case expr.OpAshr:
			return b.shifter(x, y, shiftRight, x[len(x)-1])
		}
	case *expr.Un:
		x := b.BV(v.X)
		if v.Op == expr.OpNot {
			return b.notBits(x)
		}
		// Two's-complement negation: ~x + 1.
		s, _ := b.adder(b.notBits(x), b.constBits(0, uint(len(x))), b.t)
		return s
	case *expr.Extract:
		x := b.BV(v.X)
		out := make([]sat.Lit, v.Hi-v.Lo+1)
		copy(out, x[v.Lo:v.Hi+1])
		return out
	case *expr.Ext:
		x := b.BV(v.X)
		out := make([]sat.Lit, v.W)
		copy(out, x)
		fill := b.f
		if v.Kind == expr.SignExt {
			fill = x[len(x)-1]
		}
		for i := len(x); i < int(v.W); i++ {
			out[i] = fill
		}
		return out
	case *expr.Ite:
		c := b.Bool(v.Cond)
		x, y := b.BV(v.Then), b.BV(v.Else)
		out := make([]sat.Lit, len(x))
		for i := range out {
			out[i] = b.mux(c, x[i], y[i])
		}
		return out
	case *expr.Read:
		panic("bitblast: memory read must be eliminated before blasting (see internal/smt)")
	}
	panic(fmt.Sprintf("bitblast: BV on %T", e))
}

func (b *Blaster) constBits(v uint64, w uint) []sat.Lit {
	bits := make([]sat.Lit, w)
	for i := range bits {
		bits[i] = b.constLit(v>>uint(i)&1 == 1)
	}
	return bits
}

func (b *Blaster) notBits(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i, l := range x {
		out[i] = l.Neg()
	}
	return out
}

func (b *Blaster) mapBits2(x, y []sat.Lit, f func(a, c sat.Lit) sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range out {
		out[i] = f(x[i], y[i])
	}
	return out
}

// adder is a ripple-carry adder with carry-in; it returns sum and carry-out.
func (b *Blaster) adder(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i] = b.xor3(x[i], y[i], c)
		c = b.maj3(x[i], y[i], c)
	}
	return out, c
}

// multiplier is a shift-add multiplier (modular, same width as operands).
func (b *Blaster) multiplier(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := b.constBits(0, uint(w))
	for i := 0; i < w; i++ {
		// addend = (x << i) & y[i]
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = b.f
			} else {
				addend[j] = b.and2(x[j-i], y[i])
			}
		}
		acc, _ = b.adder(acc, addend, b.f)
	}
	return acc
}

type shiftDir int

const (
	shiftLeft shiftDir = iota
	shiftRight
)

// shifter is a logarithmic barrel shifter. fill is the bit shifted in
// (b.f for logical shifts, the sign bit for arithmetic right shifts).
func (b *Blaster) shifter(x, amt []sat.Lit, dir shiftDir, fill sat.Lit) []sat.Lit {
	w := len(x)
	// Number of stages: ceil(log2(w)).
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	cur := make([]sat.Lit, w)
	copy(cur, x)
	for s := 0; s < stages && s < len(amt); s++ {
		sh := 1 << uint(s)
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			if dir == shiftLeft {
				if i-sh >= 0 {
					shifted = cur[i-sh]
				} else {
					shifted = fill
				}
			} else {
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = fill
				}
			}
			next[i] = b.mux(amt[s], shifted, cur[i])
		}
		cur = next
	}
	// Any set bit in amt beyond the stage range means "shift out everything".
	if len(amt) > stages {
		big := b.orN(amt[stages:])
		for i := range cur {
			cur[i] = b.mux(big, fill, cur[i])
		}
	}
	return cur
}

// ultBits returns the borrow-out of x - y, i.e. x <u y.
func (b *Blaster) ultBits(x, y []sat.Lit) sat.Lit {
	borrow := b.f
	for i := range x {
		borrow = b.maj3(x[i].Neg(), y[i], borrow)
	}
	return borrow
}

func (b *Blaster) eqBits(x, y []sat.Lit) sat.Lit {
	acc := b.t
	for i := range x {
		acc = b.and2(acc, b.xor2(x[i], y[i]).Neg())
	}
	return acc
}

// ---------------------------------------------------------------------------
// Booleans
// ---------------------------------------------------------------------------

// Bool encodes a boolean expression, returning a single literal equivalent
// to it.
func (b *Blaster) Bool(e expr.BoolExpr) sat.Lit {
	e = b.intern.Intern(e).(expr.BoolExpr)
	for p := b; p != nil; p = p.parent {
		if l, ok := p.boolCache[e]; ok {
			b.stats.BoolHits++
			return l
		}
	}
	b.stats.BoolMisses++
	l := b.boolE(e)
	b.boolCache[e] = l
	return l
}

func (b *Blaster) boolE(e expr.BoolExpr) sat.Lit {
	switch v := e.(type) {
	case *expr.BoolConst:
		return b.constLit(v.B)
	case *expr.BoolVar:
		if l, ok := b.boolVars[v.Name]; ok {
			return l
		}
		l := b.newLit()
		b.boolVars[v.Name] = l
		return l
	case *expr.NotBExpr:
		return b.Bool(v.X).Neg()
	case *expr.Nary:
		ls := make([]sat.Lit, len(v.Args))
		for i, a := range v.Args {
			ls[i] = b.Bool(a)
		}
		if v.Op == expr.OpAndB {
			return b.andN(ls)
		}
		return b.orN(ls)
	case *expr.Cmp:
		x, y := b.BV(v.X), b.BV(v.Y)
		switch v.Op {
		case expr.OpEq:
			return b.eqBits(x, y)
		case expr.OpUlt:
			return b.ultBits(x, y)
		case expr.OpUle:
			return b.ultBits(y, x).Neg()
		case expr.OpSlt:
			return b.sltBits(x, y)
		case expr.OpSle:
			return b.sltBits(y, x).Neg()
		}
	}
	panic(fmt.Sprintf("bitblast: Bool on %T", e))
}

func (b *Blaster) sltBits(x, y []sat.Lit) sat.Lit {
	sx, sy := x[len(x)-1], y[len(y)-1]
	diff := b.xor2(sx, sy)
	// Different signs: x < y iff x is negative. Same signs: unsigned compare.
	return b.mux(diff, sx, b.ultBits(x, y))
}

// BoolVarValue reads the value of a named boolean variable from the model.
func (b *Blaster) BoolVarValue(name string) bool {
	l, ok := b.boolVars[name]
	if !ok {
		return false
	}
	v := b.S.Value(l.Var())
	if l.Sign() {
		v = !v
	}
	return v
}

// Assert constrains e to be true. Top-level conjunctions are split to keep
// the CNF small. Once the solver is unsat at level 0 nothing more is
// encoded: the verdict cannot change, and the clauses would only cost time.
func (b *Blaster) Assert(e expr.BoolExpr) {
	if b.dead {
		return
	}
	if n, ok := e.(*expr.Nary); ok && n.Op == expr.OpAndB {
		for _, a := range n.Args {
			b.Assert(a)
		}
		return
	}
	b.clause1(b.Bool(e))
}

// AssertImplied constrains act ⇒ e: each top-level conjunct of e becomes a
// clause guarded by the negated activation literal, so the constraint is
// active only while act is assumed (or asserted) true. This is the CNF
// backbone of assumption-scoped assertions in internal/smt. Like Assert, it
// encodes nothing into a solver that is unsat at level 0.
func (b *Blaster) AssertImplied(act sat.Lit, e expr.BoolExpr) {
	if b.dead {
		return
	}
	if n, ok := e.(*expr.Nary); ok && n.Op == expr.OpAndB {
		for _, a := range n.Args {
			b.AssertImplied(act, a)
		}
		return
	}
	b.clause2(act.Neg(), b.Bool(e))
}
