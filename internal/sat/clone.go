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
		rng:             lazyrand.New(seed),
		unsat:           s.unsat,
		MaxConflicts:    s.MaxConflicts,
	}
	c.heap = varHeap{
		act:  &c.activity,
		heap: append([]int32(nil), s.heap.heap...),
		pos:  append([]int32(nil), s.heap.pos...),
	}
	return c
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
