// Package smt is a satisfiability-modulo-theories frontend over the CDCL
// solver in internal/sat: quantifier-free bitvectors plus a theory of
// memories (total maps from 64-bit addresses to 64-bit words).
//
// It stands in for Z3 in the Scam-V pipeline. Memory reads are eliminated
// before bit-blasting:
//
//  1. read-over-write rewriting: mem[a := v][x] becomes ite(a = x, v, mem[x]);
//  2. Ackermann expansion: each read mem[x] of a base memory variable becomes
//     a fresh bitvector variable r, with functional-consistency constraints
//     (x_i = x_j) ⇒ (r_i = r_j) for every pair of reads of the same memory.
//
// Models assign concrete words to every read address, from which a concrete
// initial memory image is reconstructed.
package smt

import (
	"context"
	"fmt"
	"sort"

	"scamv/internal/bitblast"
	"scamv/internal/expr"
	"scamv/internal/sat"
)

// Options configures a Solver.
type Options struct {
	// Seed drives randomized decisions; solving is deterministic per seed.
	Seed int64
	// DefaultPhase is the polarity of unconstrained decisions. false (the
	// default) yields Z3-like "all zeros" default models.
	DefaultPhase bool
	// RandomPhaseProb makes a fraction of decisions use a random polarity,
	// diversifying enumerated models. 0 disables.
	RandomPhaseProb float64
	// MaxConflicts bounds the search; 0 means unbounded.
	MaxConflicts int64
	// Portfolio, when >= 1, backs the solver with a sat.Portfolio of that
	// many diversified CDCL workers racing each query (worker 0 runs the
	// configuration above and supplies all models, so results are
	// deterministic across portfolio sizes; see sat.Portfolio). 0 keeps the
	// classic single-solver backend.
	Portfolio int
}

// satConfig maps Options onto the base sat search configuration.
func (o Options) satConfig() sat.Config {
	return sat.Config{
		Seed:            o.Seed,
		DefaultPhase:    o.DefaultPhase,
		RandomPhaseProb: o.RandomPhaseProb,
		MaxConflicts:    o.MaxConflicts,
	}
}

type readInfo struct {
	addr expr.BVExpr // address expression, memory-free
	v    *expr.Var   // the fresh variable standing for the read value
}

// Solver is an incremental SMT solver: assert formulas, check, read a model,
// block it, and check again. Beyond plain global assertions it supports
// assumption-scoped assertions: AssertScoped encodes a formula guarded by a
// fresh activation literal and CheckUnder solves with a chosen set of
// activation literals assumed true, so many logically independent queries
// over a shared prefix reuse one solver (one memory elimination, one
// bit-blasting) instead of rebuilding it per query.
type Solver struct {
	sat sat.Engine
	bl  *bitblast.Blaster

	// rn, when non-nil, translates between the caller's variable names and
	// the canonical placeholder names of the shape-cache prototype this
	// solver was instantiated from. Formulas are renamed into canonical
	// space on the way in; models, handles and name listings are renamed
	// back on the way out. Solvers built by New run without translation.
	rn *renamer

	reads          map[string][]readInfo // per base memory variable
	readSeen       map[*expr.Read]*expr.Var
	nreads         int
	ackConstraints int64 // functional-consistency implications asserted

	bvVars   map[string]uint // declared widths of encoded variables
	boolVars map[string]bool

	// capture, when non-nil, collects the names of bitvector variables
	// referenced (or introduced by read elimination) while asserting one
	// scoped formula; AssertScoped stores them in the returned Handle.
	capture map[string]bool

	// lits is scratch for the assumption list of CheckUnder and the
	// blocking clause of BlockVars*, reused across queries.
	lits []sat.Lit
}

// Handle identifies one assumption-scoped assertion: pass it to CheckUnder
// to activate the formula, and to BlockVarsUnder to add blocking clauses
// that apply only while the formula is active.
type Handle struct {
	act   sat.Lit
	names []string // bitvector variables referenced by the scoped formula
	valid bool
}

// Names returns the sorted bitvector variable names referenced by the
// scoped formula (including read variables its elimination introduced).
func (h Handle) Names() []string { return h.names }

// New returns a fresh solver.
func New(opts Options) *Solver {
	cfg := opts.satConfig()
	var eng sat.Engine
	if opts.Portfolio >= 1 {
		eng = sat.NewPortfolio(sat.DefaultPortfolioConfigs(cfg, opts.Portfolio))
	} else {
		eng = sat.NewWithConfig(cfg)
	}
	return &Solver{
		sat:      eng,
		bl:       bitblast.New(eng),
		reads:    make(map[string][]readInfo),
		readSeen: make(map[*expr.Read]*expr.Var),
		bvVars:   make(map[string]uint),
		boolVars: make(map[string]bool),
	}
}

// Assert adds a formula to the solver.
func (s *Solver) Assert(e expr.BoolExpr) {
	if s.rn != nil {
		e = expr.RenameBool(e, s.rn.in)
	}
	flat := s.elim(e).(expr.BoolExpr)
	s.recordVars(flat)
	s.bl.Assert(flat)
}

// AssertScoped encodes e guarded by a fresh activation literal and returns
// a Handle for it. The formula constrains the search only during CheckUnder
// calls that list the handle; other checks (and plain Check) see it fully
// relaxed. Scoped assertions cannot be retracted, but an unused scope costs
// only its (shared, cached) CNF.
func (s *Solver) AssertScoped(e expr.BoolExpr) Handle {
	if s.rn != nil {
		e = expr.RenameBool(e, s.rn.in)
	}
	s.capture = make(map[string]bool)
	flat := s.elim(e).(expr.BoolExpr)
	s.recordVars(flat)
	names := make([]string, 0, len(s.capture))
	for n := range s.capture {
		names = append(names, s.rnOut(n))
	}
	sort.Strings(names)
	s.capture = nil
	act := sat.MkLit(s.sat.NewVar(), false)
	s.bl.AssertImplied(act, flat)
	return Handle{act: act, names: names, valid: true}
}

// rnIn translates a caller-space name into the solver's internal space;
// identity for solvers not built from a shape-cache prototype.
func (s *Solver) rnIn(name string) string {
	if s.rn == nil {
		return name
	}
	return s.rn.in(name)
}

// rnOut translates an internal name back into caller space.
func (s *Solver) rnOut(name string) string {
	if s.rn == nil {
		return name
	}
	return s.rn.out(name)
}

// CheckUnder runs the SAT search with the given scoped assertions active.
// With no handles it is equivalent to Check. On Sat, the model (read via
// Model) satisfies every active scoped formula plus all plain assertions.
func (s *Solver) CheckUnder(handles ...Handle) sat.Status {
	assumptions := s.lits[:0]
	for _, h := range handles {
		if h.valid {
			assumptions = append(assumptions, h.act)
		}
	}
	s.lits = assumptions
	return s.sat.Solve(assumptions...)
}

// ResetSearch rewinds the backend solver's search heuristics (phases,
// activities, randomization) to their initial state, keeping all encoded
// clauses. Incremental callers reset between logically independent
// CheckUnder queries so each behaves like a fresh solver over the same CNF;
// see sat.Solver.ResetSearch.
func (s *Solver) ResetSearch(seed int64) { s.sat.ResetSearch(seed) }

// SetContext installs a cancellation context on the backend SAT solver:
// a cancelled context makes in-flight and future checks return Unknown
// instead of searching on. See sat.Solver.SetContext.
func (s *Solver) SetContext(ctx context.Context) { s.sat.SetContext(ctx) }

func (s *Solver) recordVars(e expr.Expr) {
	bv := make(map[string]bool)
	boolv := make(map[string]bool)
	expr.Vars(e, bv, boolv, nil)
	for name := range bv {
		if s.capture != nil {
			s.capture[name] = true
		}
		if _, ok := s.bvVars[name]; !ok {
			s.bvVars[name] = 0 // width filled in lazily below
		}
	}
	for name := range boolv {
		s.boolVars[name] = true
	}
	// Recover widths by a second walk (cheap; variables are few).
	var walk func(x expr.Expr)
	walk = func(x expr.Expr) {
		switch v := x.(type) {
		case *expr.Var:
			s.bvVars[v.Name] = v.W
		case *expr.Bin:
			walk(v.X)
			walk(v.Y)
		case *expr.Un:
			walk(v.X)
		case *expr.Extract:
			walk(v.X)
		case *expr.Ext:
			walk(v.X)
		case *expr.Ite:
			walk(v.Cond)
			walk(v.Then)
			walk(v.Else)
		case *expr.Cmp:
			walk(v.X)
			walk(v.Y)
		case *expr.Nary:
			for _, a := range v.Args {
				walk(a)
			}
		case *expr.NotBExpr:
			walk(v.X)
		}
	}
	walk(e)
}

// elim removes memory reads from e (see the package comment).
func (s *Solver) elim(e expr.Expr) expr.Expr {
	switch v := e.(type) {
	case *expr.Const, *expr.Var, *expr.BoolConst, *expr.BoolVar:
		return e
	case *expr.Bin:
		x := s.elim(v.X).(expr.BVExpr)
		y := s.elim(v.Y).(expr.BVExpr)
		if x == v.X && y == v.Y {
			return e
		}
		return rebin(v.Op, x, y)
	case *expr.Un:
		x := s.elim(v.X).(expr.BVExpr)
		if v.Op == expr.OpNot {
			return expr.Not(x)
		}
		return expr.Neg(x)
	case *expr.Extract:
		return expr.NewExtract(v.Hi, v.Lo, s.elim(v.X).(expr.BVExpr))
	case *expr.Ext:
		return expr.NewExt(v.Kind, s.elim(v.X).(expr.BVExpr), v.W)
	case *expr.Ite:
		return expr.NewIte(s.elim(v.Cond).(expr.BoolExpr),
			s.elim(v.Then).(expr.BVExpr), s.elim(v.Else).(expr.BVExpr))
	case *expr.Cmp:
		return recmp(v.Op, s.elim(v.X).(expr.BVExpr), s.elim(v.Y).(expr.BVExpr))
	case *expr.Nary:
		args := make([]expr.BoolExpr, len(v.Args))
		for i, a := range v.Args {
			args[i] = s.elim(a).(expr.BoolExpr)
		}
		if v.Op == expr.OpAndB {
			return expr.AndB(args...)
		}
		return expr.OrB(args...)
	case *expr.NotBExpr:
		return expr.NotB(s.elim(v.X).(expr.BoolExpr))
	case *expr.Read:
		return s.elimRead(v)
	}
	panic(fmt.Sprintf("smt: elim on %T", e))
}

func rebin(op expr.BinOp, x, y expr.BVExpr) expr.BVExpr {
	switch op {
	case expr.OpAdd:
		return expr.Add(x, y)
	case expr.OpSub:
		return expr.Sub(x, y)
	case expr.OpMul:
		return expr.Mul(x, y)
	case expr.OpAnd:
		return expr.And(x, y)
	case expr.OpOr:
		return expr.Or(x, y)
	case expr.OpXor:
		return expr.Xor(x, y)
	case expr.OpShl:
		return expr.Shl(x, y)
	case expr.OpLshr:
		return expr.Lshr(x, y)
	case expr.OpAshr:
		return expr.Ashr(x, y)
	}
	panic("smt: bad binop")
}

func recmp(op expr.CmpOp, x, y expr.BVExpr) expr.BoolExpr {
	switch op {
	case expr.OpEq:
		return expr.Eq(x, y)
	case expr.OpUlt:
		return expr.Ult(x, y)
	case expr.OpUle:
		return expr.Ule(x, y)
	case expr.OpSlt:
		return expr.Slt(x, y)
	case expr.OpSle:
		return expr.Sle(x, y)
	}
	panic("smt: bad cmpop")
}

// elimRead eliminates one read node, pushing it through stores and
// introducing an Ackermann variable at the base memory.
func (s *Solver) elimRead(r *expr.Read) expr.BVExpr {
	if v, ok := s.readSeen[r]; ok {
		return v
	}
	addr := s.elim(r.Addr).(expr.BVExpr)
	res := s.readBase(r.M, addr)
	if v, ok := res.(*expr.Var); ok {
		s.readSeen[r] = v
	}
	return res
}

func (s *Solver) readBase(m expr.MemExpr, addr expr.BVExpr) expr.BVExpr {
	switch mv := m.(type) {
	case *expr.Store:
		sa := s.elim(mv.Addr).(expr.BVExpr)
		sv := s.elim(mv.Val).(expr.BVExpr)
		return expr.NewIte(expr.Eq(sa, addr), sv, s.readBase(mv.M, addr))
	case *expr.MemVar:
		// Reuse an existing read of the same memory at a structurally
		// identical address expression.
		for _, ri := range s.reads[mv.Name] {
			if ri.addr == addr || ri.addr.String() == addr.String() {
				return ri.v
			}
		}
		s.nreads++
		v := expr.NewVar(fmt.Sprintf("$rd_%s_%d", mv.Name, s.nreads), 64)
		// Functional consistency with every earlier read of this memory.
		for _, prev := range s.reads[mv.Name] {
			c := expr.Implies(expr.Eq(prev.addr, addr), expr.Eq(prev.v, v))
			s.recordVars(c)
			s.bl.Assert(c)
			s.ackConstraints++
		}
		s.reads[mv.Name] = append(s.reads[mv.Name], readInfo{addr: addr, v: v})
		s.bvVars[v.Name] = 64
		if s.capture != nil {
			s.capture[v.Name] = true
		}
		return v
	}
	panic(fmt.Sprintf("smt: readBase on %T", m))
}

// CNFIdentity reports the backend's variable count, stored clause count and
// clause-database hash (sat.Solver.CNFHash). Tests pin these to prove that
// an encoding change leaves the CNF it produces untouched.
func (s *Solver) CNFIdentity() (vars, clauses int, hash uint64) {
	e := s.sat.(interface {
		NumClauses() int
		CNFHash() uint64
	})
	return s.sat.NumVars(), e.NumClauses(), e.CNFHash()
}

// Check runs the SAT search.
func (s *Solver) Check() sat.Status { return s.sat.Solve() }

// Stats is the solver's cumulative effort counter set: the CDCL search
// counters of the backend, the blast-cache traffic of the Tseitin encoder,
// and the memory-elimination work (Ackermann read variables introduced and
// functional-consistency constraints asserted). Telemetry snapshots it
// around each query and records the Sub delta, so one type serves live
// tracing, the debug endpoint, and tests.
type Stats struct {
	// Conflicts, Decisions, and Propagations are the backend CDCL search
	// counters (sat.Stats).
	Conflicts    int64
	Decisions    int64
	Propagations int64

	// BlastHits and BlastMisses count hash-consed CNF cache lookups in the
	// bit-blaster, across both bitvector and boolean expressions.
	BlastHits   int64
	BlastMisses int64

	// AckermannReads is the number of fresh read variables introduced by
	// memory elimination; AckermannConstraints the number of functional-
	// consistency implications asserted for them (quadratic in reads per
	// memory, the §5-style blowup this layer makes observable).
	AckermannReads       int64
	AckermannConstraints int64

	// SharedClauses counts learnt clauses imported from the portfolio's
	// clause-share pool, summed over all workers. Always 0 for the classic
	// single-solver backend.
	SharedClauses int64
}

// Sub returns the counter deltas st - prev.
func (st Stats) Sub(prev Stats) Stats {
	return Stats{
		Conflicts:            st.Conflicts - prev.Conflicts,
		Decisions:            st.Decisions - prev.Decisions,
		Propagations:         st.Propagations - prev.Propagations,
		BlastHits:            st.BlastHits - prev.BlastHits,
		BlastMisses:          st.BlastMisses - prev.BlastMisses,
		AckermannReads:       st.AckermannReads - prev.AckermannReads,
		AckermannConstraints: st.AckermannConstraints - prev.AckermannConstraints,
		SharedClauses:        st.SharedClauses - prev.SharedClauses,
	}
}

// Stats snapshots the solver's effort counters.
func (s *Solver) Stats() Stats {
	ss := s.sat.Stats()
	cs := s.bl.CacheStats()
	return Stats{
		Conflicts:            ss.Conflicts,
		Decisions:            ss.Decisions,
		Propagations:         ss.Propagations,
		BlastHits:            cs.Hits(),
		BlastMisses:          cs.Misses(),
		AckermannReads:       int64(s.nreads),
		AckermannConstraints: s.ackConstraints,
		SharedClauses:        ss.SharedIn,
	}
}

// LastWinner reports which portfolio worker decided the previous check
// (1-based), or 0 when the backend is a single solver or the check returned
// Unknown. The telemetry layer records it per query.
func (s *Solver) LastWinner() int {
	if p, ok := s.sat.(*sat.Portfolio); ok {
		return p.LastWinner()
	}
	return 0
}

// PortfolioWins returns the per-worker verdict tallies of the portfolio
// backend, or nil for a single-solver backend.
func (s *Solver) PortfolioWins() []int64 {
	if p, ok := s.sat.(*sat.Portfolio); ok {
		return p.Wins()
	}
	return nil
}

// Model extracts the current satisfying assignment, including reconstructed
// memory images for every memory variable that was read.
func (s *Solver) Model() *expr.Assignment {
	// Build the assignment in the solver's internal name space first — the
	// read address expressions evaluated below live there — and translate
	// the keys to caller space at the end.
	a := expr.NewAssignment()
	for name := range s.bvVars {
		if s.bl.HasVar(name) {
			a.BV[name] = s.bl.VarValue(name)
		}
	}
	for name := range s.boolVars {
		a.Bool[name] = s.bl.BoolVarValue(name)
	}
	for memName, reads := range s.reads {
		mm := expr.NewMemModel(0)
		for _, ri := range reads {
			addr := a.EvalBV(ri.addr)
			mm.Set(addr, a.BV[ri.v.Name])
		}
		a.Mem[memName] = mm
	}
	if s.rn == nil {
		return a
	}
	out := expr.NewAssignment()
	for name, v := range a.BV {
		out.BV[s.rn.out(name)] = v
	}
	for name, v := range a.Bool {
		out.Bool[s.rn.out(name)] = v
	}
	for name, mm := range a.Mem {
		out.Mem[s.rn.out(name)] = mm
	}
	return out
}

// VarNames returns the sorted names of all bitvector variables known to the
// solver (including internal read variables, whose names start with "$rd_").
func (s *Solver) VarNames() []string {
	names := make([]string, 0, len(s.bvVars))
	for n := range s.bvVars {
		names = append(names, s.rnOut(n))
	}
	sort.Strings(names)
	return names
}

// ReadVarNames returns the names of the Ackermann read variables of the
// given memory, in introduction order.
func (s *Solver) ReadVarNames(mem string) []string {
	var names []string
	for _, ri := range s.reads[s.rnIn(mem)] {
		names = append(names, s.rnOut(ri.v.Name))
	}
	return names
}

// BlockVars adds a blocking clause ruling out the current model's values of
// the named bitvector variables, so the next Check yields a model that
// differs in at least one of them. Names without encoded bits are skipped.
// It returns false if nothing could be blocked (no named variable encoded).
func (s *Solver) BlockVars(names []string) bool {
	return s.block(s.lits[:0], names)
}

// BlockVarsUnder is BlockVars restricted to the scope of h: the blocking
// clause carries ¬h.act, so it only forbids the model during CheckUnder
// calls that activate h. Other scopes sharing this solver are unaffected.
func (s *Solver) BlockVarsUnder(h Handle, names []string) bool {
	if !h.valid {
		return s.BlockVars(names)
	}
	return s.block(append(s.lits[:0], h.act.Neg()), names)
}

// block appends, for each named variable, the literals its model value
// falsifies to clause (which holds any scope guard) and adds the result.
func (s *Solver) block(clause []sat.Lit, names []string) bool {
	guard := len(clause)
	for _, name := range names {
		name = s.rnIn(name)
		if !s.bl.HasVar(name) {
			continue
		}
		w := s.bvVars[name]
		if w == 0 {
			w = 64
		}
		val := s.bl.VarValue(name)
		bits := s.bl.VarBits(name, w)
		for i, l := range bits {
			if val>>uint(i)&1 == 1 {
				clause = append(clause, l.Neg())
			} else {
				clause = append(clause, l)
			}
		}
	}
	s.lits = clause
	if len(clause) == guard {
		return false
	}
	s.sat.AddClause(clause...)
	return true
}
