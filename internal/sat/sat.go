// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, first-UIP
// conflict analysis, VSIDS branching with phase saving, and Luby restarts.
//
// It is the backend of the bitvector SMT solver in internal/smt, which this
// repository uses in place of Z3 for synthesizing test-case states from
// observational-equivalence relations.
//
// The default decision phase is false (assign 0), which makes models of
// underconstrained formulas "minimal" in the same way Z3's default models
// are: unconstrained bitvector variables come out as zero. This property is
// load-bearing for the reproduction — it is what makes *unguided* test-case
// search generate nearly identical states (see DESIGN.md §1).
//
// Clauses live in a flat arena (one literal slice plus fixed-size headers,
// referenced by index) rather than as individually allocated objects. That
// keeps the allocator and garbage collector out of the encoding hot path and
// makes Clone a handful of bulk copies, which is what the campaign-scoped
// shape cache (internal/smt) relies on to instantiate prototype solvers
// cheaply.
package sat

import (
	"context"
	"math/rand"

	"scamv/internal/lazyrand"
)

// Lit is a literal: variable index shifted left once, low bit set when the
// literal is negated. Variables are dense integers starting at 0.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// cref is a clause reference: an index into the solver's clause headers.
// crefNone marks "no reason clause".
type cref = int32

const crefNone cref = -1

// clsHead locates one clause in the literal arena.
type clsHead struct {
	off    int32
	size   int32
	learnt bool
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New or NewWithConfig.
type Solver struct {
	arena []Lit     // all clause literals, clause-contiguous
	heads []clsHead // problem + learnt clauses, in addition order

	watches [][]cref

	assigns  []int8 // 0 = unassigned, 1 = true, -1 = false
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap
	seen     []bool

	phase        []int8    // saved phase: 1 true, -1 false, 0 use default
	baseAct      []float64 // initial activity (BoostVar amounts), for ResetSearch
	DefaultPhase bool      // initial polarity for decisions (false = assign 0)

	// RandomPhaseProb is the probability that a decision uses a random
	// polarity instead of the saved/default phase. Non-zero values
	// diversify models during enumeration.
	RandomPhaseProb float64
	// RandomVarProb is the probability that a decision picks a uniformly
	// random unassigned variable instead of the VSIDS choice.
	RandomVarProb float64
	rng           *rand.Rand

	// varDecay and restart policy come from Config (New uses the classic
	// defaults: decay 0.95, Luby restarts with base 100).
	varDecay    float64
	restartBase int64
	restartGeom bool

	unsat bool // top-level conflict found
	dirty bool // propagation has permuted clause lits / watch lists

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64
	SharedIn     int64 // clauses imported from a ClauseShare pool
	SharedOut    int64 // clauses exported to a ClauseShare pool

	// MaxConflicts, when positive, aborts Solve with Unknown after that
	// many conflicts within one Solve call.
	MaxConflicts int64

	// Clause sharing (portfolio workers only; see ClauseShare). share is
	// consulted at restart boundaries: learnt clauses up to shareMaxLen
	// literals are exported, and — when shareImport is set — foreign clauses
	// are imported as learnt clauses.
	share       *ClauseShare
	shareCursor int // pool index imported up to
	shareImport bool
	shareMaxLen int
	lastExport  int // heads index exported up to

	// Scratch buffers reused across conflicts; their contents never survive
	// a call.
	addTmp    []Lit
	addMark   []int8 // per variable: sign of the literal already in addTmp, 0 if none
	learntTmp []Lit
	seenTmp   []int

	// ctx, when set, is polled every ctxCheckMask+1 conflicts; a cancelled
	// context aborts Solve with Unknown (see SetContext).
	ctx context.Context
}

// ctxCheckMask throttles context polling to every 1024th conflict: a single
// conflict is far under a microsecond, so polling each one would make the
// hot loop pay for cancellation that almost never happens.
const ctxCheckMask = 1023

// SetContext installs a cancellation context checked during Solve (about
// every 1024 conflicts, plus once at entry). A cancelled context makes Solve
// return Unknown with the trail unwound — the solver stays usable, exactly
// as after a MaxConflicts abort. A nil ctx removes the check.
func (s *Solver) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		// context.Background and friends can never cancel; skip the polling.
		ctx = nil
	}
	s.ctx = ctx
}

// Stats is a point-in-time copy of the solver's cumulative search counters,
// the unit the telemetry layer diffs around each query to attribute effort.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64
	SharedIn     int64
	SharedOut    int64
}

// Stats snapshots the search counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Learnt:       s.Learnt,
		SharedIn:     s.SharedIn,
		SharedOut:    s.SharedOut,
	}
}

// Sub returns the counter deltas st - prev (effort spent between the two
// snapshots).
func (st Stats) Sub(prev Stats) Stats {
	return Stats{
		Conflicts:    st.Conflicts - prev.Conflicts,
		Decisions:    st.Decisions - prev.Decisions,
		Propagations: st.Propagations - prev.Propagations,
		Learnt:       st.Learnt - prev.Learnt,
		SharedIn:     st.SharedIn - prev.SharedIn,
		SharedOut:    st.SharedOut - prev.SharedOut,
	}
}

// New returns an empty solver seeded for reproducible randomized decisions,
// with the classic search configuration (see Config).
func New(seed int64) *Solver {
	return NewWithConfig(Config{Seed: seed})
}

// NewWithConfig returns an empty solver with the given search configuration.
func NewWithConfig(cfg Config) *Solver {
	cfg = cfg.withDefaults()
	s := &Solver{varInc: 1, rng: lazyrand.New(cfg.Seed)}
	s.heap = newVarHeap(&s.activity)
	s.DefaultPhase = cfg.DefaultPhase
	s.RandomPhaseProb = cfg.RandomPhaseProb
	s.RandomVarProb = cfg.RandomVarProb
	s.MaxConflicts = cfg.MaxConflicts
	s.varDecay = cfg.VarDecay
	s.restartBase = cfg.RestartBase
	s.restartGeom = cfg.RestartGeometric
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefNone)
	s.activity = append(s.activity, 0)
	s.baseAct = append(s.baseAct, 0)
	s.phase = append(s.phase, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of stored clauses (problem + learnt);
// unit clauses are absorbed into the level-0 trail and not counted.
func (s *Solver) NumClauses() int { return len(s.heads) }

func (s *Solver) litValue(l Lit) int8 {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// clauseLits returns the (mutable) literal slice of a clause.
func (s *Solver) clauseLits(ci cref) []Lit {
	h := &s.heads[ci]
	return s.arena[h.off : h.off+h.size : h.off+h.size]
}

// pushClause appends a clause to the arena, copying lits.
func (s *Solver) pushClause(lits []Lit, learnt bool) cref {
	off := int32(len(s.arena))
	s.arena = append(s.arena, lits...)
	s.heads = append(s.heads, clsHead{off: off, size: int32(len(lits)), learnt: learnt})
	return cref(len(s.heads) - 1)
}

// AddClause adds a clause to the solver. It returns false if the clause
// makes the formula trivially unsatisfiable. Clauses may be added between
// Solve calls (e.g. blocking clauses for model enumeration).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Normalize: sort-free dedup in first-occurrence order, drop false
	// lits, detect tautology. addMark records the sign each kept variable
	// appears with, making the scan linear in the clause length; it is
	// all-zero again before every return.
	if n := s.NumVars(); len(s.addMark) < n {
		s.addMark = append(s.addMark, make([]int8, n-len(s.addMark))...)
	}
	out := s.addTmp[:0]
	done := func() {
		for _, o := range out {
			s.addMark[o.Var()] = 0
		}
		s.addTmp = out[:0]
	}
	for _, l := range lits {
		if l.Var() >= s.NumVars() {
			done()
			panic("sat: literal references unallocated variable")
		}
		switch s.litValue(l) {
		case 1:
			done()
			return true // satisfied at level 0
		case -1:
			continue // falsified at level 0: drop
		}
		sign := int8(1)
		if l.Sign() {
			sign = -1
		}
		switch s.addMark[l.Var()] {
		case 0:
			s.addMark[l.Var()] = sign
			out = append(out, l)
		case -sign:
			done()
			return true // tautology
		}
	}
	done()
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefNone)
		if s.propagate() != crefNone {
			s.unsat = true
			return false
		}
		return true
	}
	ci := s.pushClause(out, false)
	s.attach(ci)
	return true
}

func (s *Solver) attach(ci cref) {
	cl := s.clauseLits(ci)
	s.watches[cl[0].Neg()] = append(s.watches[cl[0].Neg()], ci)
	s.watches[cl[1].Neg()] = append(s.watches[cl[1].Neg()], ci)
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = -1
	} else {
		s.assigns[v] = 1
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause
// reference or crefNone.
func (s *Solver) propagate() cref {
	s.dirty = true // watch lists and clause lit order may be permuted below
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		confl := crefNone
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			cl := s.clauseLits(ci)
			// Ensure the false literal (p.Neg()) is cl[1].
			if cl[0] == p.Neg() {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// If cl[0] is already true the clause is satisfied.
			if s.litValue(cl[0]) == 1 {
				kept = append(kept, ci)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cl); k++ {
				if s.litValue(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1].Neg()] = append(s.watches[cl[1].Neg()], ci)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, ci)
			if s.litValue(cl[0]) == -1 {
				// Conflict: keep the remaining watches and bail.
				kept = append(kept, ws[i+1:]...)
				confl = ci
				break
			}
			s.uncheckedEnqueue(cl[0], ci)
		}
		s.watches[p] = kept
		if confl != crefNone {
			return confl
		}
	}
	return crefNone
}

// analyze performs first-UIP conflict analysis. It returns the learnt clause
// (with the asserting literal first; valid until the next conflict) and the
// backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := append(s.learntTmp[:0], 0) // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	cleanup := s.seenTmp[:0]

	for {
		for _, q := range s.clauseLits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal of the current level on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Compute backtrack level = max level among learnt[1:].
	btLevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, v := range cleanup {
		s.seen[v] = false
	}
	s.learntTmp = learnt
	s.seenTmp = cleanup[:0]
	return learnt, btLevel
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayActivities() { s.varInc /= s.varDecay }

// BoostVar raises a variable's initial activity so it is decided early.
// The bit-blaster boosts the bits of named input variables: together with
// the zero default phase, this biases models of underconstrained formulas
// toward zero inputs, mimicking Z3's default models. The boost amount is
// also recorded as the variable's base activity, which ResetSearch restores.
func (s *Solver) BoostVar(v int, amount float64) {
	s.activity[v] += s.varInc * amount
	s.baseAct[v] += amount
	s.heap.update(v)
}

// ResetSearch rewinds the solver's search heuristics to their initial
// state — saved phases cleared, activities restored to the BoostVar base
// values, the activity increment reset, and the randomized-decision stream
// reseeded — while keeping the clause database (including learnt clauses)
// intact. Incremental callers that interleave logically independent queries
// on one solver (e.g. per-coverage-class checks under assumptions) use it so
// each query finds the same minimal-model-style answer a fresh solver over
// the same CNF would, instead of inheriting the previous query's phases.
func (s *Solver) ResetSearch(seed int64) {
	s.cancelUntil(0)
	s.rng.Seed(seed) // a lazyrand stream: reseeding is cheap and stream-identical
	s.varInc = 1
	for v := range s.assigns {
		s.phase[v] = 0
		s.activity[v] = s.baseAct[v]
	}
	s.heap.rebuild(s.assigns)
}

func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.trailLim[lvl]); i-- {
		v := s.trail[i].Var()
		if s.assigns[v] == 1 {
			s.phase[v] = 1
		} else {
			s.phase[v] = -1
		}
		s.assigns[v] = 0
		s.reason[v] = crefNone
		s.heap.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	if s.RandomVarProb > 0 && s.rng.Float64() < s.RandomVarProb {
		// Try a few random picks before falling back to VSIDS.
		for try := 0; try < 8; try++ {
			v := s.rng.Intn(s.NumVars())
			if s.assigns[v] == 0 {
				return v
			}
		}
	}
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assigns[v] == 0 {
			return v
		}
	}
	return -1
}

func (s *Solver) pickPhase(v int) bool {
	if s.RandomPhaseProb > 0 && s.rng.Float64() < s.RandomPhaseProb {
		return s.rng.Intn(2) == 0
	}
	switch s.phase[v] {
	case 1:
		return true
	case -1:
		return false
	}
	return s.DefaultPhase
}

// luby computes the Luby restart sequence value for index x (0-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// restartBudget returns the conflict budget of the r-th restart interval
// under the configured policy: Luby (default) or geometric (×1.5).
func (s *Solver) restartBudget(r int64) int64 {
	if s.restartGeom {
		b := s.restartBase
		for i := int64(0); i < r; i++ {
			b += b >> 1
		}
		return b
	}
	return luby(r) * s.restartBase
}

// Solve searches for a satisfying assignment consistent with the given
// assumption literals. It returns Sat, Unsat, or Unknown (only when
// MaxConflicts is exceeded within this call, or the context is cancelled).
//
// Assumptions are enqueued as pseudo-decisions at successive decision
// levels before any search decision, in the MiniSat style: restarts and
// conflict-driven backjumps may cancel below the assumption levels, and the
// search loop re-establishes whatever assumptions were unwound before
// picking the next branch variable. An Unsat result under non-empty
// assumptions means only that the assumptions are inconsistent with the
// clause database; the solver stays usable and later calls (with other
// assumptions, or none) may still return Sat. After Sat, the full model —
// including the assumption literals — is readable through Value and Model
// until the next Solve or AddClause call.
func (s *Solver) Solve(assumptions ...Lit) Status {
	// Every Solve, however early it returns, leaves the watch state for
	// restore to re-canonicalize. A portfolio worker 0 cancelled by a
	// helper's instant Unsat before it propagates would otherwise keep its
	// as-added clause order while a lone solver's is canonicalized, and the
	// two would search the next query differently.
	s.dirty = true
	if s.unsat {
		return Unsat
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		return Unknown
	}
	s.cancelUntil(0)
	if s.propagate() != crefNone {
		s.unsat = true
		return Unsat
	}
	for _, a := range assumptions {
		if a.Var() >= s.NumVars() {
			panic("sat: assumption references unallocated variable")
		}
	}
	restart := int64(0)
	budget := s.restartBudget(restart)
	conflictsHere := int64(0)
	startConflicts := s.Conflicts

	for {
		confl := s.propagate()
		if confl != crefNone {
			s.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefNone)
			} else {
				ci := s.pushClause(learnt, true)
				s.Learnt++
				s.attach(ci)
				s.uncheckedEnqueue(learnt[0], ci)
			}
			s.decayActivities()
			if s.MaxConflicts > 0 && s.Conflicts-startConflicts >= s.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if s.ctx != nil && s.Conflicts&ctxCheckMask == 0 && s.ctx.Err() != nil {
				s.cancelUntil(0)
				return Unknown
			}
			if conflictsHere >= budget {
				// Restart. The boundary is also the cheap place to notice a
				// lost portfolio race: frequently-restarting helpers stop
				// burning cycles well before the every-1024th-conflict poll.
				conflictsHere = 0
				restart++
				budget = s.restartBudget(restart)
				s.cancelUntil(0)
				if s.ctx != nil && s.ctx.Err() != nil {
					return Unknown
				}
				if s.share != nil {
					if !s.shareSync() {
						return Unsat
					}
				}
			}
			continue
		}
		// Re-establish assumptions unwound by backjumps or restarts: one
		// pseudo-decision level per assumption, before any real decision.
		next := Lit(-1)
		for int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case 1:
				// Already satisfied: open an empty level so the remaining
				// assumptions keep their level alignment.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case -1:
				// The clause database forces the complement: unsat under
				// these assumptions, but not globally.
				s.cancelUntil(0)
				return Unsat
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat // all variables assigned
			}
			s.Decisions++
			next = MkLit(v, !s.pickPhase(v))
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(next, crefNone)
	}
}

// Value returns the value of variable v in the last model (false when
// unassigned, which cannot happen after Sat).
func (s *Solver) Value(v int) bool { return s.assigns[v] == 1 }

// Model returns a copy of the current satisfying assignment.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.assigns[v] == 1
	}
	return m
}

// ---------------------------------------------------------------------------
// Indexed binary max-heap over variable activities (MiniSat order heap).
// ---------------------------------------------------------------------------

// varHeap orders variables by activity. Heap slots and positions are int32:
// variables are dense int32-range integers, like literals.
type varHeap struct {
	act  *[]float64
	heap []int32
	pos  []int32 // pos[v] = index in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap { return &varHeap{act: act} }

func (h *varHeap) less(a, b int32) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v int) bool { return v < len(h.pos) && h.pos[v] >= 0 }

func (h *varHeap) insert(v int) {
	for v >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.up(int(h.pos[v]))
	}
}

// rebuild discards the heap and reinserts every unassigned variable in
// index order, so the layout (and therefore tie-breaking among equal
// activities) matches a freshly-constructed solver's heap.
func (h *varHeap) rebuild(assigns []int8) {
	h.heap = h.heap[:0]
	for i := range h.pos {
		h.pos[i] = -1
	}
	for v, a := range assigns {
		if a == 0 {
			h.insert(v)
		}
	}
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0)
	}
	return int(v)
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
