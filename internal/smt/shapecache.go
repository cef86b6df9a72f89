package smt

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scamv/internal/expr"
)

// renamer is the name-space boundary of a shape-cache-instantiated solver:
// the solver internally works in the prototype's canonical placeholder
// space ("@0", "@1", ...), and the renamer bijects between those and the
// caller's actual names. Names unknown to the bijection (variables first
// introduced after instantiation, e.g. by coverage-class constraints) pass
// through unchanged — which is only sound because caller names never start
// with '@': a pass-through "@0" would silently alias the prototype's
// placeholder for a different variable and corrupt the encoding with no
// error. The invariant is enforced, not assumed: '@'-prefixed caller names
// panic at this boundary (newRenamer for names present at instantiation,
// in for names introduced later).
//
// Ackermann read variables are named "$rd_<mem>_<n>" by the solver; both
// directions translate the embedded memory name so read variables line up
// with what an uncached solver would have produced.
type renamer struct {
	toCanon   map[string]string
	fromCanon map[string]string
}

// newRenamer builds the bijection actual[i] <-> "@i".
func newRenamer(actual []string) *renamer {
	rn := &renamer{
		toCanon:   make(map[string]string, len(actual)),
		fromCanon: make(map[string]string, len(actual)),
	}
	for i, name := range actual {
		rejectReservedName(name)
		p := "@" + strconv.Itoa(i)
		rn.toCanon[name] = p
		rn.fromCanon[p] = name
	}
	return rn
}

func (rn *renamer) in(name string) string {
	rejectReservedName(name)
	return rnMap(rn.toCanon, name)
}

func (rn *renamer) out(name string) string { return rnMap(rn.fromCanon, name) }

// rejectReservedName panics on caller variable names in the reserved
// placeholder namespace. Load-bearing for correctness: see the renamer doc.
func rejectReservedName(name string) {
	if strings.HasPrefix(name, "@") {
		panic("smt: variable name " + strconv.Quote(name) +
			" collides with the shape cache's reserved '@' placeholder namespace")
	}
}

func rnMap(m map[string]string, name string) string {
	if t, ok := m[name]; ok {
		return t
	}
	if rest, ok := strings.CutPrefix(name, "$rd_"); ok {
		if i := strings.LastIndexByte(rest, '_'); i > 0 {
			if t, ok := m[rest[:i]]; ok {
				return "$rd_" + t + rest[i:]
			}
		}
	}
	return name
}

// ShapeCacheStats is a point-in-time snapshot of shape-cache traffic. A
// lookup is a miss only while the prototype is first built, so for a fixed
// campaign the totals are deterministic: exactly one miss per distinct
// template shape.
type ShapeCacheStats struct {
	Hits, Misses int64
	Shapes       int
}

// ShapeCache is the campaign-scoped solver-prototype cache: the first time a
// formula-list shape (canonical expression identity, see expr.CanonShape) is
// instantiated, a prototype solver is built — memory elimination, Ackermann
// expansion and bit-blasting run once — and every later instantiation of the
// same shape clones the prototype's CNF in a few bulk copies, renaming
// variables at the API boundary instead of re-encoding.
//
// It is safe for concurrent use by the staged engine's testgen workers: the
// entry map is mutex-guarded, each prototype is built under its own entry
// lock (concurrent requesters of one shape block until the build finishes,
// then clone), and finished prototypes are frozen — clones layer their own
// caches over the prototype's read-only maps.
type ShapeCache struct {
	mu      sync.Mutex
	entries map[string]*shapeEntry
	// known holds key hashes journaled by a resumed campaign's completed
	// programs: their prototypes were already paid for before the restart,
	// so a live lookup of a known key counts as a hit even while the
	// prototype is silently rebuilt. That keeps a resumed campaign's
	// hit/miss totals equal to an uninterrupted run's — the resume
	// determinism contract of internal/journal. Nil outside resume.
	known map[uint64]bool

	hits, misses atomic.Int64
}

type shapeEntry struct {
	mu    sync.Mutex
	built bool
	proto *Solver
}

// NewShapeCache returns an empty cache.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{entries: make(map[string]*shapeEntry)}
}

// Stats snapshots hit/miss totals and the number of cached shapes.
func (sc *ShapeCache) Stats() ShapeCacheStats {
	sc.mu.Lock()
	n := len(sc.entries)
	sc.mu.Unlock()
	return ShapeCacheStats{Hits: sc.hits.Load(), Misses: sc.misses.Load(), Shapes: n}
}

// Instantiate returns a solver equivalent to
//
//	s := New(opts); for _, f := range formulas { s.Assert(f) }
//
// — same CNF, same models, same verdicts — but sharing the encoding work
// with every other instantiation of the same formula shape. The returned
// bool reports whether the prototype already existed (a cache hit).
//
// Only the search options in opts (seed, phase, conflict budget) vary
// between instantiations; they do not enter the cache key because they
// configure the search, not the CNF.
func (sc *ShapeCache) Instantiate(opts Options, formulas []expr.BoolExpr) (*Solver, bool) {
	s, hit, _ := sc.InstantiateTagged(opts, formulas)
	return s, hit
}

// KeyHash is the stable 64-bit identity of a canonical shape key, the unit
// of the journal's per-program shape-key lists (the full key strings are
// large; the hash is what crosses the durability boundary).
func KeyHash(key string) uint64 {
	// FNV-1a, inlined to keep the hot path allocation-free.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// MarkKnown registers shape-key hashes restored from a campaign journal:
// lookups of these keys count as hits from now on (see the known field).
func (sc *ShapeCache) MarkKnown(keys []uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.known == nil {
		sc.known = make(map[uint64]bool, len(keys))
	}
	for _, k := range keys {
		sc.known[k] = true
	}
}

// InstantiateTagged is Instantiate plus the shape-key hash of the lookup,
// which campaign engines journal for resume accounting.
func (sc *ShapeCache) InstantiateTagged(opts Options, formulas []expr.BoolExpr) (*Solver, bool, uint64) {
	key, renamed, names := expr.CanonShape(formulas)
	kh := KeyHash(key)

	sc.mu.Lock()
	e := sc.entries[key]
	if e == nil {
		e = &shapeEntry{}
		sc.entries[key] = e
	}
	known := sc.known[kh]
	sc.mu.Unlock()

	e.mu.Lock()
	hit := e.built
	if !e.built {
		// The prototype always runs on a plain single solver with zero
		// options: none of the Options fields influence the clauses
		// produced, and the prototype is never solved. It is frozen from
		// here on — instantiations only read it.
		proto := New(Options{})
		for _, f := range renamed {
			proto.Assert(f)
		}
		e.proto = proto
		e.built = true
	}
	e.mu.Unlock()
	// A lookup of a journal-known key is a hit even when the prototype had
	// to be rebuilt in this process: the uninterrupted campaign would have
	// hit here, and resume accounting must agree with it.
	counted := hit || known
	if counted {
		sc.hits.Add(1)
	} else {
		sc.misses.Add(1)
	}

	return sc.instantiate(e.proto, opts, names), counted, kh
}

// instantiate clones the prototype under the requested search options.
func (sc *ShapeCache) instantiate(proto *Solver, opts Options, names []string) *Solver {
	eng := opts.configure(proto.sat.Clone(opts.Seed))
	s := &Solver{
		sat:            eng,
		bl:             proto.bl.CloneOnto(eng),
		rn:             newRenamer(names),
		reads:          make(map[string][]readInfo, len(proto.reads)),
		readSeen:       make(map[*expr.Read]*expr.Var), // pointer memo is prototype-local; the structural fallback in readBase covers re-reads
		nreads:         proto.nreads,
		ackConstraints: proto.ackConstraints,
		bvVars:         make(map[string]uint, len(proto.bvVars)),
		boolVars:       make(map[string]bool, len(proto.boolVars)),
	}
	for mem, ris := range proto.reads {
		s.reads[mem] = append([]readInfo(nil), ris...)
	}
	for n, w := range proto.bvVars {
		s.bvVars[n] = w
	}
	for n, v := range proto.boolVars {
		s.boolVars[n] = v
	}
	return s
}
