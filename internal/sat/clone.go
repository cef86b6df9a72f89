package sat

import (
	"hash/fnv"

	"scamv/internal/lazyrand"
)

// Clone returns an independent deep copy of the solver: same clause
// database, assignment trail, heuristic state, and configuration, sharing
// no mutable memory with the original. Thanks to the arena clause
// representation this is a handful of bulk slice copies — cheap enough
// that the campaign shape cache clones a fully-blasted prototype solver
// per program instead of re-blasting.
//
// The clone gets a fresh random stream seeded by seed (the original's rng
// position cannot be copied, and callers always want decorrelated or
// deterministic streams anyway — pass the same seed for reproducibility).
// The context is not carried over; call SetContext on the clone if needed.
func (s *Solver) Clone(seed int64) *Solver {
	c := &Solver{
		arena: append([]Lit(nil), s.arena...),
		heads: append([]clsHead(nil), s.heads...),
		// Watch lists are windows into one arena, so copying the arena and
		// the window table copies every list with its order intact:
		// propagation visits watchers in list order, and the order decides
		// which conflicts are found and which clauses are learnt.
		watches:  append([]cref(nil), s.watches...),
		wlist:    append([]watchList(nil), s.wlist...),
		assigns:  append([]int8(nil), s.assigns...),
		level:    append([]int32(nil), s.level...),
		reason:   append([]cref(nil), s.reason...),
		trail:    append([]Lit(nil), s.trail...),
		trailLim: append([]int32(nil), s.trailLim...),
		qhead:    s.qhead,
		activity: append([]float64(nil), s.activity...),
		varInc:   s.varInc,
		seen:     make([]bool, len(s.seen)),
		addMark:  make([]int8, len(s.addMark)),
		phase:    append([]int8(nil), s.phase...),
		baseAct:  append([]float64(nil), s.baseAct...),

		DefaultPhase:    s.DefaultPhase,
		RandomPhaseProb: s.RandomPhaseProb,
		RandomVarProb:   s.RandomVarProb,
		rng:             lazyrand.New(seed),
		varDecay:        s.varDecay,
		restartBase:     s.restartBase,
		restartGeom:     s.restartGeom,
		unsat:           s.unsat,
		dirty:           s.dirty,
		MaxConflicts:    s.MaxConflicts,
		lastExport:      len(s.heads),
	}
	c.heap = varHeap{
		act:  &c.activity,
		heap: append([]int32(nil), s.heap.heap...),
		pos:  append([]int32(nil), s.heap.pos...),
	}
	return c
}

// applyConfig overwrites the solver's search configuration in place,
// re-seeding the random stream. The clause database, assignments, and
// activities are untouched; callers pair it with ResetSearch when they
// want heuristics rewound too.
func (s *Solver) applyConfig(cfg Config) {
	cfg = cfg.withDefaults()
	s.DefaultPhase = cfg.DefaultPhase
	s.RandomPhaseProb = cfg.RandomPhaseProb
	s.RandomVarProb = cfg.RandomVarProb
	s.MaxConflicts = cfg.MaxConflicts
	s.varDecay = cfg.VarDecay
	s.restartBase = cfg.RestartBase
	s.restartGeom = cfg.RestartGeometric
	s.rng = lazyrand.New(cfg.Seed)
}

// mark captures the extent of the clause database and trail so restore can
// later rewind the solver to exactly this problem state, discarding learnt
// clauses, imported clauses, and level-0 implications added since.
type mark struct {
	heads int
	arena int
	trail int
}

// snapshot records the current database extent. Meaningful only at decision
// level 0 (Portfolio takes snapshots right after AddClause/restore, which
// both end there).
func (s *Solver) snapshot() mark {
	return mark{heads: len(s.heads), arena: len(s.arena), trail: len(s.trail)}
}

// restore rewinds the solver to a previous snapshot: the trail is unwound
// to level 0, clauses added since the mark (learnt during search, imported
// from a share pool, or asserted) are detached and dropped, and level-0
// implications recorded since are unassigned. Saved phases and activities
// are NOT rewound — portfolio determinism relies on the per-query
// ResetSearch that core's incremental path always performs.
//
// Propagation permutes clause literal order and watch-list membership in
// place, so after any search those depend on how far the search ran — which
// for a cancelled portfolio worker depends on race timing. restore therefore
// re-canonicalizes the watch state whenever propagation has run, making the
// post-restore state a pure function of the clause database content.
//
// A sticky top-level unsat is kept: a level-0 conflict is a consequence of
// clauses at or below any mark ever taken, so it remains sound.
func (s *Solver) restore(m mark) {
	s.cancelUntil(0)
	if !s.dirty && len(s.heads) == m.heads && len(s.trail) == m.trail {
		return // fast path: no search and nothing learnt since the mark
	}
	s.heads = s.heads[:m.heads]
	s.arena = s.arena[:m.arena]
	// Unassign level-0 implications recorded after the mark. This must
	// happen after the clause truncation so no reason field can point at a
	// dropped clause.
	for i := len(s.trail) - 1; i >= m.trail; i-- {
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
	s.trail = s.trail[:m.trail]
	s.qhead = len(s.trail)
	if s.lastExport > m.heads {
		s.lastExport = m.heads
	}
	s.canonicalizeWatches()
	s.dirty = false
}

// canonicalizeWatches sorts every clause's literals ascending, promotes
// watchable literals to the watch positions, and rebuilds all watch lists in
// clause order. The result depends only on the clause sets in the database
// plus the level-0 assignment — both pure functions of the clause additions
// (search-time swaps permute within a clause, never across; level-0
// propagation is at fixpoint whenever this runs) — so two workers with equal
// databases end up in identical states no matter what their previous
// searches did.
//
// The promotion is what keeps the watches alive: a watch on a literal that
// is already false at level 0 can never fire again, and a clause whose two
// smallest literals were falsified at level 0 after it was added (by later
// unit assertions) would otherwise become invisible to propagation — its
// remaining literals could all be set false without a conflict being
// detected.
func (s *Solver) canonicalizeWatches() {
	for i := range s.wlist {
		s.wlist[i].n = 0
	}
	for ci := range s.heads {
		cl := s.clauseLits(cref(ci))
		sortLits(cl)
		s.promoteWatchable(cl)
		s.watch(cl[0].Neg(), cref(ci))
		s.watch(cl[1].Neg(), cref(ci))
	}
}

// promoteWatchable moves up to two literals that are non-false under the
// level-0 assignment into positions 0 and 1, by stable rotation so the
// result is still a deterministic function of sorted order plus the level-0
// assignment. If fewer than two non-false literals exist, the level-0
// fixpoint guarantees the clause is satisfied (a unit clause would have
// propagated its last literal true): the satisfied literal ends up in
// position 0, is permanently true, and makes both watches harmlessly dead.
// Zero non-false literals means every literal is false at level 0 — a
// top-level conflict, re-asserted here in case the sticky flag was lost.
func (s *Solver) promoteWatchable(cl []Lit) {
	w := 0
	for i := 0; i < len(cl) && w < 2; i++ {
		if s.litValue(cl[i]) != -1 {
			l := cl[i]
			copy(cl[w+1:i+1], cl[w:i])
			cl[w] = l
			w++
		}
	}
	if w == 0 {
		s.unsat = true
	}
}

// sortLits is an insertion sort: blasted clauses are almost always 2–4
// literals, where this beats the generic sort and allocates nothing.
func sortLits(cl []Lit) {
	for i := 1; i < len(cl); i++ {
		l := cl[i]
		j := i - 1
		for j >= 0 && cl[j] > l {
			cl[j+1] = cl[j]
			j--
		}
		cl[j+1] = l
	}
}

// CNFHash returns an FNV-1a hash over the clause database (headers and
// literals, in addition order). Two solvers with equal hashes were built by
// the same sequence of effective clause additions — the tests use it to
// prove that cache-instantiated solvers carry byte-identical CNF skeletons.
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
		k := uint64(hd.size)
		if hd.learnt {
			k |= 1 << 32
		}
		put(k)
		for _, l := range s.arena[hd.off : hd.off+hd.size] {
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
