package sat

import (
	"context"
	"sync"
)

// Clause-sharing defaults: only short clauses travel (long learnt clauses
// rarely help another search and cost import time), and the pool stops
// growing at a fixed bound so a pathological query cannot hoard memory.
const (
	DefaultShareMaxLen  = 8
	DefaultShareMaxPool = 16384
)

// ClauseShare is an append-only pool of learnt clauses exchanged between
// the helper workers of a Portfolio. Workers export short learnt clauses at
// restart boundaries and import (their own cursor's worth of) foreign
// clauses at the same points. Entries are immutable once appended, so a
// fetched batch can be read without holding the lock.
//
// Soundness contract: every exported clause must be implied by the shared
// problem clauses. The portfolio-vs-brute differential in internal/oracle
// exists precisely to catch a pool that violates this (a "lying worker").
type ClauseShare struct {
	mu      sync.Mutex
	pool    [][]Lit
	maxLen  int
	maxPool int
}

// NewClauseShare builds a pool; non-positive limits select the defaults.
func NewClauseShare(maxLen, maxPool int) *ClauseShare {
	if maxLen <= 0 {
		maxLen = DefaultShareMaxLen
	}
	if maxPool <= 0 {
		maxPool = DefaultShareMaxPool
	}
	return &ClauseShare{maxLen: maxLen, maxPool: maxPool}
}

// Export offers a clause to the pool. It returns false when the clause is
// too long or the pool is full. The literals are copied.
func (cs *ClauseShare) Export(lits []Lit) bool {
	if len(lits) == 0 || len(lits) > cs.maxLen {
		return false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.pool) >= cs.maxPool {
		return false
	}
	cs.pool = append(cs.pool, append([]Lit(nil), lits...))
	return true
}

// fetch returns the clauses appended since cursor and the new cursor.
func (cs *ClauseShare) fetch(cursor int) ([][]Lit, int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.pool[cursor:len(cs.pool):len(cs.pool)], len(cs.pool)
}

// Size reports how many clauses the pool holds.
func (cs *ClauseShare) Size() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.pool)
}

// reset empties the pool. The backing array is dropped rather than truncated
// so batches fetched before the reset stay valid. Callers must ensure no
// worker is mid-search (Portfolio resets only between queries, with all
// worker goroutines joined).
func (cs *ClauseShare) reset() {
	cs.mu.Lock()
	cs.pool = nil
	cs.mu.Unlock()
}

// attachShare wires a worker to a pool. Importing workers pick up foreign
// clauses at restarts; all attached workers export.
func (s *Solver) attachShare(cs *ClauseShare, imports bool) {
	s.share = cs
	s.shareImport = imports
	s.shareMaxLen = cs.maxLen
	s.shareCursor = 0
	s.lastExport = len(s.heads)
}

// shareSync runs at a restart boundary (decision level 0): export fresh
// short learnt clauses, then import foreign ones. It returns false when an
// imported clause produces a top-level conflict, i.e. the formula is unsat
// (assuming a sound pool).
func (s *Solver) shareSync() bool {
	for ci := s.lastExport; ci < len(s.heads); ci++ {
		h := s.heads[ci]
		if h.learnt && int(h.size) <= s.shareMaxLen {
			if s.share.Export(s.arena[h.off : h.off+h.size]) {
				s.SharedOut++
			}
		}
	}
	s.lastExport = len(s.heads)
	if !s.shareImport {
		return true
	}
	batch, cur := s.share.fetch(s.shareCursor)
	s.shareCursor = cur
	for _, lits := range batch {
		if !s.importClause(lits) {
			return false
		}
	}
	// Imported clauses are learnt clauses now; never re-export them.
	s.lastExport = len(s.heads)
	return true
}

// importClause adds a foreign clause as a learnt clause, simplifying
// against the level-0 assignment (we are at level 0 here). It returns false
// on a top-level conflict.
func (s *Solver) importClause(lits []Lit) bool {
	out := s.addTmp[:0]
	for _, l := range lits {
		if l.Var() >= s.NumVars() {
			s.addTmp = out
			return true // foreign variable space: skip defensively
		}
		switch s.litValue(l) {
		case 1:
			s.addTmp = out
			return true // satisfied at level 0
		case -1:
			continue
		}
		out = append(out, l)
	}
	s.addTmp = out[:0]
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
	default:
		ci := s.pushClause(out, true)
		s.attach(ci)
	}
	s.SharedIn++
	return true
}

// Portfolio races N diversified CDCL workers over one logical problem,
// implementing Engine so the SMT layer can use it as a drop-in solver.
//
// Every worker holds a full copy of the problem (variables and clauses are
// mirrored to all workers), diversified only in search configuration.
// Worker 0 is canonical: it runs the base configuration and is the only
// worker whose models are ever reported, which makes Sat results — models
// included — independent of the portfolio size. Helpers accelerate Unsat
// answers: a helper proving Unsat cancels the rest of the race, and helper
// learnt clauses circulate through a ClauseShare pool.
//
// Determinism: each Solve first rewinds every worker to its base problem
// state (clauses learnt or imported during earlier queries are dropped; the
// shared clause pool was emptied when the previous query's race ended), so
// a query's outcome is a function of the base clauses, the assumptions, and
// the per-worker seeds alone — not of race timing or of how far earlier
// queries' helpers ran before cancellation. The verdict protocol keeps it that way: worker 0's own
// Sat/Unsat is always final; when worker 0 returns Unknown, the helpers
// (conflict-budget-bounded) are joined WITHOUT cancellation and any helper
// Unsat is taken, in worker order. Under a sound pool and correct workers
// this yields the same verdict for every portfolio size, except on queries
// whose conflict budget is borderline: with MaxConflicts > 0 a helper may
// prove Unsat within its budget where a lone worker 0 gives up, and what a
// helper imports before exhausting its budget depends on intra-query
// scheduling, so budget-limited helper verdicts (never worker 0's, never a
// Sat model) can vary run-to-run (exact equivalence holds at
// MaxConflicts = 0; the MLine bench exhibits no such edge queries).
//
// Model determinism additionally requires the caller to ResetSearch before
// each query, as internal/core's incremental path always does: restore does
// not rewind saved phases, and worker 0's phases would otherwise depend on
// how far its previous search ran before a helper cancelled it.
type Portfolio struct {
	workers []*Solver
	cfgs    []Config
	share   *ClauseShare
	bases   []mark
	ctx     context.Context

	lastWinner int // 1-based worker of the last verdict, 0 = none
	wins       []int64
}

// NewPortfolio builds an empty portfolio with one worker per config (see
// DefaultPortfolioConfigs). With a single config no sharing machinery is
// attached and Solve degenerates to a direct call.
func NewPortfolio(cfgs []Config) *Portfolio {
	workers := make([]*Solver, len(cfgs))
	for i, c := range cfgs {
		workers[i] = NewWithConfig(c)
	}
	return newPortfolio(workers, cfgs)
}

// NewPortfolioFrom builds a portfolio over pre-built workers — typically
// clones of a fully-encoded prototype from the campaign shape cache — and
// applies the i-th config to the i-th worker. The workers must hold
// identical problem state (same variables, same clauses, same order);
// clones of one solver satisfy this by construction.
func NewPortfolioFrom(workers []*Solver, cfgs []Config) *Portfolio {
	if len(workers) != len(cfgs) {
		panic("sat: NewPortfolioFrom worker/config count mismatch")
	}
	for i := range workers {
		workers[i].applyConfig(cfgs[i])
	}
	return newPortfolio(workers, cfgs)
}

func newPortfolio(workers []*Solver, cfgs []Config) *Portfolio {
	p := &Portfolio{
		workers: workers,
		cfgs:    append([]Config(nil), cfgs...),
		bases:   make([]mark, len(workers)),
		wins:    make([]int64, len(workers)),
	}
	if len(workers) > 1 {
		p.share = NewClauseShare(0, 0)
		// Helpers exchange clauses among themselves. Worker 0 stays out of
		// the pool entirely — no export, no import — so its search (and its
		// models) are exactly those of a lone solver with the base config.
		for _, w := range workers[1:] {
			w.attachShare(p.share, true)
		}
	}
	for i, w := range workers {
		p.bases[i] = w.snapshot()
	}
	return p
}

// restoreAll rewinds every worker to its base problem state and rewinds the
// helpers' pool cursors to the start of the (empty, see Solve) shared pool.
// It is a no-op when nothing was learnt since (fast path in restore).
// Callers guarantee no worker goroutine is running (every Solve return path
// joins them).
func (p *Portfolio) restoreAll() {
	for i, w := range p.workers {
		w.restore(p.bases[i])
		w.shareCursor = 0
	}
}

// NewVar allocates the variable in every worker and returns its index
// (identical across workers by construction).
func (p *Portfolio) NewVar() int {
	v := p.workers[0].NewVar()
	for _, w := range p.workers[1:] {
		w.NewVar()
	}
	return v
}

// NumVars returns the number of allocated variables.
func (p *Portfolio) NumVars() int { return p.workers[0].NumVars() }

// NumClauses returns the canonical worker's stored clause count.
func (p *Portfolio) NumClauses() int { return p.workers[0].NumClauses() }

// CNFHash returns the canonical worker's clause-database hash (see
// Solver.CNFHash); every worker holds the same problem clauses.
func (p *Portfolio) CNFHash() uint64 { return p.workers[0].CNFHash() }

// AddClause adds the clause to every worker. Workers are first rewound to
// their base state so clause normalization (which consults the level-0
// assignment) sees identical state in every worker — and so the result is
// independent of what any worker happened to learn before.
func (p *Portfolio) AddClause(lits ...Lit) bool {
	p.restoreAll()
	ok := true
	for _, w := range p.workers {
		if !w.AddClause(lits...) {
			ok = false
		}
	}
	for i, w := range p.workers {
		p.bases[i] = w.snapshot()
	}
	return ok
}

// BoostVar raises the variable's base activity in every worker.
func (p *Portfolio) BoostVar(v int, amount float64) {
	for _, w := range p.workers {
		w.BoostVar(v, amount)
	}
}

// ResetSearch rewinds every worker's heuristics; helpers get decorrelated
// seeds mixed from the given one.
func (p *Portfolio) ResetSearch(seed int64) {
	p.restoreAll()
	p.workers[0].ResetSearch(seed)
	for i, w := range p.workers {
		if i > 0 {
			w.ResetSearch(mixSeed(seed, i))
		}
	}
}

// SetContext installs a cancellation context applied to subsequent Solves.
func (p *Portfolio) SetContext(ctx context.Context) { p.ctx = ctx }

// Value reads variable v in the canonical worker's model.
func (p *Portfolio) Value(v int) bool { return p.workers[0].Value(v) }

// Model copies the canonical worker's satisfying assignment.
func (p *Portfolio) Model() []bool { return p.workers[0].Model() }

// Stats sums the workers' search counters. The sums reflect real effort
// across the race and are observability-only: unlike verdicts they depend
// on cancellation timing.
func (p *Portfolio) Stats() Stats {
	var t Stats
	for _, w := range p.workers {
		s := w.Stats()
		t.Conflicts += s.Conflicts
		t.Decisions += s.Decisions
		t.Propagations += s.Propagations
		t.Learnt += s.Learnt
		t.SharedIn += s.SharedIn
		t.SharedOut += s.SharedOut
	}
	return t
}

// Solve races the workers on the query and returns the deterministic
// verdict described on the Portfolio type.
func (p *Portfolio) Solve(assumptions ...Lit) Status {
	p.restoreAll()
	w0 := p.workers[0]
	if len(p.workers) == 1 {
		w0.SetContext(p.ctx)
		st := w0.Solve(assumptions...)
		if st == Sat || st == Unsat {
			p.lastWinner = 1
			p.wins[0]++
		} else {
			p.lastWinner = 0
		}
		return st
	}

	// Empty the pool once the race is over (every return path below joins
	// the helpers first): pool contents depend on how far helpers ran before
	// cancellation, and carrying them into the next query would make
	// budget-limited helper verdicts depend on earlier queries' race timing.
	// Resetting at the end rather than at entry leaves the window between
	// AddClause and Solve open for the oracle teeth tests to poison the pool.
	defer p.share.reset()

	outer := p.ctx
	base := context.Background()
	if outer != nil {
		base = outer
	}
	ctx0, cancel0 := context.WithCancel(base)
	ctxH, cancelH := context.WithCancel(base)
	defer cancel0()
	defer cancelH()

	w0.SetContext(ctx0)
	results := make([]Status, len(p.workers))
	var wg sync.WaitGroup
	for i := 1; i < len(p.workers); i++ {
		w := p.workers[i]
		w.SetContext(ctxH)
		wg.Add(1)
		go func(i int, w *Solver) {
			defer wg.Done()
			st := w.Solve(assumptions...)
			results[i] = st
			switch st {
			case Unsat:
				// The race is decided (sound pool ⇒ the formula is unsat
				// under these assumptions); stop everyone else. Worker 0
				// returning its own Unsat first changes nothing.
				cancel0()
				cancelH()
			case Sat:
				// No worker can prove Unsat now; only worker 0's model
				// matters, so stop the other helpers.
				cancelH()
			}
		}(i, w)
	}

	st0 := w0.Solve(assumptions...)
	if st0 == Sat || st0 == Unsat {
		// Worker 0's own answer is always final (it can only be cancelled
		// into Unknown, never into a wrong verdict).
		cancel0()
		cancelH()
		wg.Wait()
		p.lastWinner = 1
		p.wins[0]++
		return st0
	}
	if outer != nil && outer.Err() != nil {
		cancelH()
		wg.Wait()
		p.lastWinner = 0
		return Unknown
	}
	// Worker 0 gave up (conflict budget) or was cancelled by a helper's
	// Unsat. Join ALL helpers without cancelling — each is bounded by the
	// same conflict budget — so the answer does not depend on when worker 0
	// stopped. Any helper Unsat decides.
	wg.Wait()
	for i := 1; i < len(p.workers); i++ {
		if results[i] == Unsat {
			p.lastWinner = i + 1
			p.wins[i]++
			return Unsat
		}
	}
	p.lastWinner = 0
	return Unknown
}

// LastWinner reports which worker decided the previous Solve, 1-based;
// 0 means no verdict (Unknown).
func (p *Portfolio) LastWinner() int { return p.lastWinner }

// Wins returns a copy of the per-worker verdict tallies.
func (p *Portfolio) Wins() []int64 { return append([]int64(nil), p.wins...) }

// Configs returns a copy of the worker configurations.
func (p *Portfolio) Configs() []Config { return append([]Config(nil), p.cfgs...) }

// SharedPool exposes the helper clause pool (nil for single-worker
// portfolios); the oracle differential uses it to poison the pool in teeth
// tests.
func (p *Portfolio) SharedPool() *ClauseShare { return p.share }
