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
// lets Reset recycle a solver's memory for the next program. Watch lists
// follow the same scheme: every literal's list is a window into one flat
// cref arena, so the solver holds no per-list pointers for the garbage
// collector to scan.
package sat

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

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

// watchList locates one literal's watch list in the watch arena: the list
// occupies watches[off : off+n], with room for cap entries before it must
// move.
type watchList struct {
	off, n, cap int32
}

// minWatchCap is the capacity a watch list gets when it first moves into
// the arena; most literals of a blasted circuit watch only a few clauses.
const minWatchCap = 4

// clsHead locates one clause in the literal arena. A learnt clause stores
// its size with the sign bit set, which keeps the header at 8 bytes; len
// strips the flag.
type clsHead struct {
	off  int32
	size int32
}

func (h clsHead) len() int32   { return h.size & math.MaxInt32 }
func (h clsHead) learnt() bool { return h.size < 0 }

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
// New.
type Solver struct {
	arena []Lit     // all clause literals, clause-contiguous
	heads []clsHead // problem + learnt clauses, in addition order

	watches []cref      // all watch lists, each a window described by wlist
	wlist   []watchList // per literal: its watch list's window

	assigns  []int8 // 0 = unassigned, 1 = true, -1 = false
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	seen     []bool

	// rebuilt holds the heap slots ResetSearch's last rebuild produced, for
	// the state rebuiltKey names; boosts counts BoostVar calls for that key.
	rebuilt    []int32
	rebuiltKey heapKey
	boosts     int64

	// From ResetSearch until materialize the heap is lazy: heap and its
	// positions are stale, and the heap they stand for is rebuilt after
	// popped pops, then the pending inserts in order. Until a conflict
	// bumps an activity, every activity is its BoostVar base, so the pops
	// of rebuilt are one fixed sequence. drain computes it on demand in
	// heapsort layout: after n pops drain[:len(drain)-n] is rebuilt after
	// n pops, and drain[len(drain)-n:] holds those pops in reverse order.
	// drainEnd[k] is the slot where pop k's sift-down ended, which is what
	// undoing the pop needs, so n is len(drainEnd). Both stay valid as long
	// as rebuiltKey does.
	lazy             bool
	popped           int
	pending          []int32
	drain            []int32
	drainEnd         []int32
	materializations int // heaps materialize built; read by tests

	// owed is set when AddClause leaves a model on the trail: the backtrack
	// to level 0 is owed to whatever next needs the trail, the phases or
	// the heap. cancelUntil clears it.
	owed bool

	phase        []int8    // saved phase: 1 true, -1 false, 0 use default
	baseAct      []float64 // initial activity (BoostVar amounts), for ResetSearch
	DefaultPhase bool      // initial polarity for decisions (false = assign 0)

	// RandomPhaseProb is the probability that a decision uses a random
	// polarity instead of the saved/default phase. Non-zero values
	// diversify models during enumeration.
	RandomPhaseProb float64
	rng             *rand.Rand

	unsat bool // top-level conflict found

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64

	// MaxConflicts, when positive, aborts Solve with Unknown after that
	// many conflicts within one Solve call.
	MaxConflicts int64

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
}

// Stats snapshots the search counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Learnt:       s.Learnt,
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
	}
}

// Search constants: VSIDS activity decay and the Luby restart unit (in
// conflicts), the classic MiniSat values.
const (
	varDecay    = 0.95
	restartBase = 100
)

// New returns an empty solver seeded for reproducible randomized decisions.
// The zero default phase, no random polarity and no conflict budget are the
// defaults; set DefaultPhase, RandomPhaseProb and MaxConflicts to change them.
func New(seed int64) *Solver {
	s := &Solver{varInc: 1, rng: lazyrand.New(seed)}
	s.heap.act = &s.activity
	return s
}

// Reset makes s equal to New(seed) while keeping the capacity of every
// slice it holds, so a solver recycled for a CNF of similar size encodes
// it without allocating. Slices are truncated, not cleared: every append
// writes the value it needs, and a watch window never reads past its n.
// Every field not carried over here takes New's zero value.
func (s *Solver) Reset(seed int64) {
	*s = Solver{
		arena:    s.arena[:0],
		heads:    s.heads[:0],
		watches:  s.watches[:0],
		wlist:    s.wlist[:0],
		assigns:  s.assigns[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		varInc:   1,
		heap: varHeap{
			heap: s.heap.heap[:0],
			pos:  s.heap.pos[:0],
		},
		rebuilt:   s.rebuilt[:0],
		pending:   s.pending[:0],
		drain:     s.drain[:0],
		drainEnd:  s.drainEnd[:0],
		seen:      s.seen[:0],
		phase:     s.phase[:0],
		baseAct:   s.baseAct[:0],
		rng:       s.rng,
		addTmp:    s.addTmp[:0],
		addMark:   s.addMark[:0],
		learntTmp: s.learntTmp[:0],
		seenTmp:   s.seenTmp[:0],
	}
	s.heap.act = &s.activity
	s.rng.Seed(seed)
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	if s.owed {
		s.cancelUntil(0)
	}
	v := len(s.assigns)
	s.assigns = append(s.assigns, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefNone)
	s.activity = append(s.activity, 0)
	s.baseAct = append(s.baseAct, 0)
	s.phase = append(s.phase, 0)
	s.seen = append(s.seen, false)
	s.addMark = append(s.addMark, 0)
	s.wlist = append(s.wlist, watchList{}, watchList{})
	s.heap.pos = append(s.heap.pos, -1)
	s.heapInsert(v)
	return v
}

// Oversized reports whether s holds more than twice the capacity its
// current clauses and variables need, which no solver grown by append from
// New does. A recycler drops such a solver instead of keeping the excess
// for the next CNF. The clause arena, the clause headers, the watch arena
// and the assignments stand for every slice: the others grow with one of
// them.
func (s *Solver) Oversized() bool {
	return oversized(s.arena) || oversized(s.heads) || oversized(s.watches) || oversized(s.assigns)
}

// oversized reports whether x has more than twice the capacity its length
// needs, beyond a floor below which the excess is not worth a reallocation.
func oversized[T any](x []T) bool { return cap(x) > 2*len(x)+1024 }

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

// rootValue is litValue at decision level 0: a literal assigned above it
// counts as unassigned.
func (s *Solver) rootValue(l Lit) int8 {
	if s.level[l.Var()] != 0 {
		return 0
	}
	return s.litValue(l)
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// clauseLits returns the (mutable) literal slice of a clause.
func (s *Solver) clauseLits(ci cref) []Lit {
	h := s.heads[ci]
	end := h.off + h.len()
	return s.arena[h.off:end:end]
}

// pushClause appends a clause to the arena, copying lits.
func (s *Solver) pushClause(lits []Lit, learnt bool) cref {
	h := clsHead{off: int32(len(s.arena)), size: int32(len(lits))}
	if learnt {
		h.size |= math.MinInt32
	}
	s.arena = append(s.arena, lits...)
	s.heads = append(s.heads, h)
	return cref(len(s.heads) - 1)
}

// AddClause adds a clause to the solver. It returns false if the clause
// makes the formula trivially unsatisfiable. Clauses may be added between
// Solve calls (e.g. blocking clauses for model enumeration).
//
// After a Sat model AddClause does not backtrack. It normalizes against
// the level-0 values, so a literal the model falsifies is kept, attaches
// the clause and leaves the backtrack to level 0 owed. ResetSearch undoes
// the model without the phases and heap inserts it would discard; Solve,
// NewVar and BoostVar make the backtrack first. A unit or empty clause
// backtracks at once. Models, heap layouts and search effort are those of
// backtracking here.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if s.decisionLevel() > 0 {
		s.owed = true
	}
	// Normalize: sort-free dedup in first-occurrence order, drop false
	// lits, detect tautology. addMark records the sign each kept variable
	// appears with, making the scan linear in the clause length; it is
	// all-zero again before every return.
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
		switch s.rootValue(l) {
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
		s.cancelUntil(0)
		s.unsat = true
		return false
	case 1:
		s.cancelUntil(0)
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
	s.watch(cl[0].Neg(), ci)
	s.watch(cl[1].Neg(), ci)
}

// watch appends ci to literal l's watch list. A full list moves to the end
// of the arena with doubled capacity, or grows in place when it already
// ends there; its entries keep their order, so propagation visits watchers
// exactly as it would with one slice per literal. Moving never touches
// another list's window, and windows are addressed by offset, so it is safe
// while propagate scans a different list.
func (s *Solver) watch(l Lit, ci cref) {
	w := &s.wlist[l]
	if w.n == w.cap {
		newCap := max(2*w.cap, minWatchCap)
		end := int32(len(s.watches))
		if w.cap > 0 && w.off+w.cap == end {
			s.watches = slices.Grow(s.watches, int(newCap-w.cap))[:w.off+newCap]
		} else {
			s.watches = slices.Grow(s.watches, int(newCap))[:end+newCap]
			copy(s.watches[end:], s.watches[w.off:w.off+w.n])
			w.off = end
		}
		w.cap = newCap
	}
	s.watches[w.off+w.n] = ci
	w.n++
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
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Propagations++
		// p's own list never moves during its scan: a watch only moves to a
		// literal that is not false, and p.Neg() is. Other lists may move
		// and reallocate the arena, so entries are addressed by index.
		off, end := s.wlist[p].off, s.wlist[p].off+s.wlist[p].n
		kept := off
		confl := crefNone
		for i := off; i < end; i++ {
			ci := s.watches[i]
			cl := s.clauseLits(ci)
			// Ensure the false literal (p.Neg()) is cl[1].
			if cl[0] == p.Neg() {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// If cl[0] is already true the clause is satisfied.
			if s.litValue(cl[0]) == 1 {
				s.watches[kept] = ci
				kept++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(cl); k++ {
				if s.litValue(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watch(cl[1].Neg(), ci)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			s.watches[kept] = ci
			kept++
			if s.litValue(cl[0]) == -1 {
				// Conflict: keep the remaining watches and bail.
				kept += int32(copy(s.watches[kept:], s.watches[i+1:end]))
				confl = ci
				break
			}
			s.uncheckedEnqueue(cl[0], ci)
		}
		s.wlist[p].n = kept - off
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
	s.materialize()
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayActivities() { s.varInc /= varDecay }

// BoostVar raises a variable's initial activity so it is decided early.
// The bit-blaster boosts the bits of named input variables: together with
// the zero default phase, this biases models of underconstrained formulas
// toward zero inputs, mimicking Z3's default models. The boost amount is
// also recorded as the variable's base activity, which ResetSearch restores.
func (s *Solver) BoostVar(v int, amount float64) {
	if s.owed {
		s.cancelUntil(0)
	}
	s.materialize()
	s.activity[v] += s.varInc * amount
	s.baseAct[v] += amount
	s.boosts++
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
//
// The heap rebuild is a pure function of the variable count, the level-0
// trail and the base activities. Between Resets the level-0 trail only
// grows and only BoostVar changes a base activity, so the trail's length
// and a count of BoostVar calls name them. While that key is unchanged the
// rebuild's previous slots, and the pops drain computed from them, are
// reused instead of sifting every unassigned variable in again.
//
// ResetSearch leaves the heap lazy (see Solver.lazy): a query that meets no
// conflict decides in the rebuilt heap's pop order and never builds a real
// heap. materialize builds one before anything the lazy state cannot stand
// for: an activity change, a pop with inserts queued, or a queue grown past
// twice the variable count. Inserts are queued only by backtracks inside
// Solve and by assumption solves that end Unsat; ResetSearch drops them.
//
// The model a query leaves on the trail is undone here in place: its
// blocking clause only owes the backtrack (see AddClause), and ResetSearch
// pays it without cancelUntil's bookkeeping, since the phases it would
// save are cleared below and the heap it would reinsert into is replaced.
func (s *Solver) ResetSearch(seed int64) {
	if len(s.trailLim) > 0 {
		for _, l := range s.trail[s.trailLim[0]:] {
			s.assigns[l.Var()] = 0
			s.reason[l.Var()] = crefNone
		}
		s.trail = s.trail[:s.trailLim[0]]
		s.trailLim = s.trailLim[:0]
		s.qhead = len(s.trail)
	}
	s.owed = false
	s.lazy, s.pending, s.popped = true, s.pending[:0], 0
	s.rng.Seed(seed) // a lazyrand stream: reseeding is cheap and stream-identical
	s.varInc = 1
	clear(s.phase)
	copy(s.activity, s.baseAct)
	key := heapKey{vars: len(s.assigns), trail0: len(s.trail), boosts: s.boosts}
	if key == s.rebuiltKey {
		return
	}
	s.heap.rebuild(s.assigns)
	s.rebuilt = append(s.rebuilt[:0], s.heap.heap...)
	s.drain = append(s.drain[:0], s.rebuilt...)
	s.drainEnd = s.drainEnd[:0]
	s.rebuiltKey = key
}

// heapInsert puts v back into the heap, or queues the insert while the heap
// is lazy.
func (s *Solver) heapInsert(v int) {
	if !s.lazy {
		s.heap.insert(v)
		return
	}
	s.pending = append(s.pending, int32(v))
	if len(s.pending) > 2*len(s.assigns) {
		s.materialize()
	}
}

// materialize makes a lazy heap real: the heap and positions of rebuilt
// after popped pops, then the pending inserts applied in order, exactly
// the heap eager inserts and pops would have left. A heap that is not lazy
// stays as it is.
func (s *Solver) materialize() {
	if !s.lazy {
		return
	}
	s.lazy = false
	s.materializations++
	h := &s.heap
	h.heap = s.undoPops(h.heap)
	h.index()
	for _, v := range s.pending {
		h.insert(int(v))
	}
	s.pending = s.pending[:0]
}

// undoPops writes into dst the heap rebuilt leaves after popped pops, by
// copying the drain and undoing its pops past popped, if any, newest
// first. drainPop moved the top to the popped slot, the last entry to the
// root, and sifted that entry down a path, moving each entry on it up a
// level. Undoing moves the path back down, puts the sifted entry back at
// the root and swaps the root with the popped slot.
func (s *Solver) undoPops(dst []int32) []int32 {
	dst = append(dst[:0], s.drain...)
	for k := len(s.drainEnd) - 1; k >= s.popped; k-- {
		i := s.drainEnd[k]
		v := dst[i]
		for i > 0 {
			p := (i - 1) / 2
			dst[i] = dst[p]
			i = p
		}
		top := len(dst) - 1 - k
		dst[0], dst[top] = dst[top], v
	}
	return dst[:len(s.rebuilt)-s.popped]
}

func (s *Solver) cancelUntil(lvl int32) {
	s.owed = false
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
		s.heapInsert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// pickBranchVar pops the most active unassigned variable, or returns -1
// when every variable is assigned. A full trail says so at once: the heap
// then holds only assigned variables, which popping one by one would
// discard in the same final state, an empty heap. A lazy heap with no
// inserts queued pops by walking drain's pop sequence.
func (s *Solver) pickBranchVar() int {
	if len(s.trail) == len(s.assigns) {
		if s.lazy {
			s.popped, s.pending = len(s.rebuilt), s.pending[:0]
		} else {
			s.heap.clear()
		}
		return -1
	}
	if len(s.pending) > 0 {
		s.materialize()
	}
	if s.lazy {
		for s.popped < len(s.rebuilt) {
			if s.popped == len(s.drainEnd) {
				end := drainPop(s.drain[:len(s.drain)-s.popped], s.activity)
				s.drainEnd = append(s.drainEnd, end)
			}
			v := s.drain[len(s.drain)-1-s.popped]
			s.popped++
			if s.assigns[v] == 0 {
				return int(v)
			}
		}
		return -1
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
// until the next Solve, ResetSearch, NewVar, BoostVar or Reset call, or an
// AddClause whose clause comes out unit or empty; a wider clause leaves the
// model in place (see AddClause).
func (s *Solver) Solve(assumptions ...Lit) Status {
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
	budget := luby(restart) * restartBase
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
				// Restart. The boundary is also a cheap place to notice a
				// cancelled context, well before the every-1024th-conflict
				// poll.
				conflictsHere = 0
				restart++
				budget = luby(restart) * restartBase
				s.cancelUntil(0)
				if s.ctx != nil && s.ctx.Err() != nil {
					return Unknown
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
// variables are dense int32-range integers, like literals. pos holds one
// entry per allocated variable (NewVar grows it before inserting).
type varHeap struct {
	act  *[]float64
	heap []int32
	pos  []int32 // pos[v] = index in heap, -1 if absent
}

func (h *varHeap) less(a, b int32) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v int) bool { return h.pos[v] >= 0 }

func (h *varHeap) insert(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.up(len(h.heap) - 1)
}

// index rewrites every position from the heap's slots.
func (h *varHeap) index() {
	for i := range h.pos {
		h.pos[i] = -1
	}
	for i, v := range h.heap {
		h.pos[v] = int32(i)
	}
}

// clear empties the heap.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.pos[v] = -1
	}
	h.heap = h.heap[:0]
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

// drainPop pops heap h in heapsort fashion: the top moves to h[len(h)-1],
// and h[:len(h)-1] is the heap that remains, sifted with varHeap.down's
// comparisons but no positions, so it has pop's layout. It returns the slot
// where the sift-down ended.
func drainPop(h []int32, act []float64) int32 {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h = h[:n]
	if n == 0 {
		return 0
	}
	v, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h[c+1]] > act[h[c]] {
			c++
		}
		if !(act[h[c]] > act[v]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
	return int32(i)
}

// heapKey is the state varHeap.rebuild is a function of, as ResetSearch
// tracks it: the variable count, the level-0 trail length and the number of
// BoostVar calls.
type heapKey struct {
	vars, trail0 int
	boosts       int64
}

// CNFHash returns an FNV-1a hash over the clause database (headers and
// literals, in addition order). Two solvers with equal hashes were built by
// the same sequence of effective clause additions — the CNF identity golden
// uses it to prove an encoding change left every pair solver's CNF intact.
func (s *Solver) CNFHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(s.heads)))
	for _, hd := range s.heads {
		k := uint64(hd.len())
		if hd.learnt() {
			k |= 1 << 32
		}
		put(k)
		for _, l := range s.arena[hd.off : hd.off+hd.len()] {
			put(uint64(uint32(l)))
		}
	}
	// Level-0 unit implications are part of the problem too (unit clauses
	// never reach the arena).
	lim := len(s.trail)
	if len(s.trailLim) > 0 {
		lim = int(s.trailLim[0])
	}
	put(uint64(lim))
	for _, l := range s.trail[:lim] {
		put(uint64(uint32(l)))
	}
	return h.Sum64()
}
