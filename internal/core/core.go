// Package core implements the paper's primary contribution: synthesis of
// observational-equivalence relations from symbolic execution results
// (Eq. 1, §2.3) and observation-refinement-guided test-case generation
// (§3, §5.2).
//
// A test case for a program P is a pair of initial states (s1, s2) with
// s1 ∼M1 s2 (equal M1 observations) and, when refinement is active,
// s1 ≁M2 s2 (different M2-only observations). Following the optimization of
// §5.4, the relation is split into one formula per pair of execution paths,
// explored round-robin; supporting models (obs.Support) contribute
// per-class coverage constraints.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"scamv/internal/expr"
	"scamv/internal/obs"
	"scamv/internal/sat"
	"scamv/internal/smt"
	"scamv/internal/symexec"
	"scamv/internal/telemetry"
)

// State is a concrete initial machine state for one side of a test case.
type State struct {
	Regs map[string]uint64
	Mem  *expr.MemModel
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	regs := make(map[string]uint64, len(s.Regs))
	for k, v := range s.Regs {
		regs[k] = v
	}
	return &State{Regs: regs, Mem: s.Mem.Clone()}
}

// TestCase is a generated pair of observationally equivalent states.
type TestCase struct {
	S1, S2 *State
	// PathA and PathB index the symbolic paths taken by S1 and S2.
	PathA, PathB int
	// Class is the support-model coverage class the pair was drawn from.
	Class int
}

// Config configures a Generator.
type Config struct {
	// Seed drives solver randomization; generation is deterministic per seed.
	Seed int64
	// RandomPhaseProb diversifies solver models (see internal/smt).
	RandomPhaseProb float64
	// Refined enables the s1 ≁M2 s2 constraint. Without it the generator
	// is the unguided baseline of the paper's evaluation.
	Refined bool
	// Support is the coverage support model; nil means M_pc only (path-pair
	// round-robin, which is always active).
	Support obs.Support
	// MaxConflicts bounds each solver query; 0 means unbounded.
	MaxConflicts int64
	// Registers lists the program's register names; extracted states carry
	// concrete values for each. Ghost and shadow registers are excluded by
	// the caller.
	Registers []string

	// Trace, when non-nil, receives one telemetry query event per solver
	// query, carrying the effort deltas (SAT conflicts/decisions/
	// propagations, blast-cache hits/misses, Ackermann expansions) that
	// query cost. Prog tags the events with the program index. A nil Trace
	// costs one pointer check per query.
	Trace *telemetry.Tracer
	Prog  int

	// Ctx, when non-nil and cancellable, is installed on every solver the
	// generator builds and polled between queries: campaign cancellation
	// aborts an in-flight SAT search (Unknown) instead of blocking behind a
	// pathological query. Nil means context.Background.
	Ctx context.Context
}

// suffixes for the two states of Eq. 1.
const (
	sfx1 = "_1"
	sfx2 = "_2"
)

// renameObs instantiates a path's observations for one side of the relation.
func renameObs(in []symexec.Obs, sfx string) []symexec.Obs {
	out := make([]symexec.Obs, len(in))
	f := expr.Suffix(sfx)
	for i, o := range in {
		vals := make([]expr.BVExpr, len(o.Vals))
		for j, v := range o.Vals {
			vals[j] = expr.RenameBV(v, f)
		}
		out[i] = symexec.Obs{Tag: o.Tag, Kind: o.Kind, Cond: expr.RenameBool(o.Cond, f), Vals: vals}
	}
	return out
}

// slotEq is the equality of one observation slot across the two states:
// either both observations are absent, or both are present with equal
// values. Slots with mismatching arity or widths can only be equal by
// being both absent.
func slotEq(a, b symexec.Obs) expr.BoolExpr {
	valsEq := expr.BoolExpr(expr.True)
	if len(a.Vals) != len(b.Vals) {
		valsEq = expr.False
	} else {
		var conj []expr.BoolExpr
		for i := range a.Vals {
			if a.Vals[i].Width() != b.Vals[i].Width() {
				valsEq = expr.False
				break
			}
			conj = append(conj, expr.Eq(a.Vals[i], b.Vals[i]))
		}
		if valsEq == expr.True {
			valsEq = expr.AndB(conj...)
		}
	}
	bothPresent := expr.AndB(a.Cond, b.Cond, valsEq)
	bothAbsent := expr.AndB(expr.NotB(a.Cond), expr.NotB(b.Cond))
	return expr.OrB(bothPresent, bothAbsent)
}

// ObsListEq is the observation-list equality lσa(s1) = lσb(s2) of Eq. 1,
// with slots aligned positionally. Lists of different slot counts are
// unequal (a conservative instantiation for cross-path pairs; see DESIGN.md).
func ObsListEq(a, b []symexec.Obs) expr.BoolExpr {
	if len(a) != len(b) {
		return expr.False
	}
	conj := make([]expr.BoolExpr, len(a))
	for i := range a {
		conj[i] = slotEq(a[i], b[i])
	}
	return expr.AndB(conj...)
}

// PairRelation builds the full relation formula for one path pair:
// pa(s1) ∧ pb(s2) ∧ EqObs_M1 — and, when refined, ∧ ¬EqObs_{M2\M1}.
// It is exported for tests and for the ablation benchmarks comparing
// path-pair splitting against the monolithic Eq. 1 relation.
func PairRelation(pa, pb *symexec.Path, refined bool) expr.BoolExpr {
	return PairRelationSlot(pa, pb, refined, -1)
}

// PairRelationSlot is PairRelation with refinement-slot coverage: when
// slot >= 0, instead of the generic disjunction "some refined observation
// differs", the formula pins down WHICH refined observation slot must
// differ. Enumerating slots round-robin ensures every transient access is
// exercised as the distinguishing one — without it, the solver is free to
// always satisfy the disjunction through the same (possibly hardware-
// invisible) observation, e.g. the causally dependent second load of
// Template C that the core never issues.
func PairRelationSlot(pa, pb *symexec.Path, refined bool, slot int) expr.BoolExpr {
	f1, f2 := expr.Suffix(sfx1), expr.Suffix(sfx2)
	conds := []expr.BoolExpr{
		expr.RenameBool(pa.Cond, f1),
		expr.RenameBool(pb.Cond, f2),
		ObsListEq(renameObs(pa.BaseObs(), sfx1), renameObs(pb.BaseObs(), sfx2)),
	}
	if refined {
		ra := renameObs(pa.RefinedObs(), sfx1)
		rb := renameObs(pb.RefinedObs(), sfx2)
		if slot >= 0 && slot < len(ra) && len(ra) == len(rb) {
			conds = append(conds, expr.NotB(slotEq(ra[slot], rb[slot])))
		} else {
			conds = append(conds, expr.NotB(ObsListEq(ra, rb)))
		}
	}
	return expr.AndB(conds...)
}

// MonolithicRelation is the unsplit Eq. 1 relation over all path pairs,
// kept for the ablation benchmark of the §5.4 optimization: a single formula
// asserting that whatever paths s1 and s2 take, their M1 observations agree
// (and, refined, that some M2 observation differs on the pair's own paths).
func MonolithicRelation(paths []*symexec.Path, refined bool) expr.BoolExpr {
	f1, f2 := expr.Suffix(sfx1), expr.Suffix(sfx2)
	var conj []expr.BoolExpr
	var anyDiff []expr.BoolExpr
	for _, pa := range paths {
		for _, pb := range paths {
			guard := expr.AndB(expr.RenameBool(pa.Cond, f1), expr.RenameBool(pb.Cond, f2))
			eq := ObsListEq(renameObs(pa.BaseObs(), sfx1), renameObs(pb.BaseObs(), sfx2))
			conj = append(conj, expr.Implies(guard, eq))
			if refined {
				diff := expr.NotB(ObsListEq(
					renameObs(pa.RefinedObs(), sfx1),
					renameObs(pb.RefinedObs(), sfx2)))
				anyDiff = append(anyDiff, expr.AndB(guard, diff))
			}
		}
	}
	if refined {
		conj = append(conj, expr.OrB(anyDiff...))
	}
	return expr.AndB(conj...)
}

// genKey identifies one (path pair, coverage class, refinement slot)
// enumeration stream. slot is -1 for the generic refinement disjunction
// (and for unrefined generation).
type genKey struct {
	a, b  int
	class int
	slot  int
}

// pairKey identifies one shared solver: all coverage classes of a
// (path pair, refinement slot) reuse the same encoded pair relation.
type pairKey struct {
	a, b int
	slot int
}

// pairState is the shared incremental solver for one pairKey. The pair
// relation, register-diff, and their bit-blasted CNF are built once;
// per-class constraints are added lazily as activation-literal scopes.
type pairState struct {
	solver *smt.Solver
	// prefixNames are the relation's variables (registers and memory reads),
	// captured before any class constraint; model blocking covers these plus
	// the class scope's own variables.
	prefixNames []string
	handles     map[int]smt.Handle // class -> scoped coverage constraint
}

// stream is one (path pair, class, slot) enumeration: a view into the
// shared pair solver.
type stream struct {
	dead   bool
	ps     *pairState
	handle smt.Handle // zero Handle when Support == nil
	names  []string   // variables to block (prefix ∪ class scope)
	seed   int64      // per-stream search seed (ResetSearch before each query)
	n      int64      // queries issued, diversifies the search seed
}

// Generator enumerates test cases for one program, round-robin across path
// pairs and support classes, each stream backed by an incremental solver
// with model blocking.
type Generator struct {
	cfg     Config
	paths   []*symexec.Path
	keys    []genKey
	streams map[genKey]*stream
	pairs   map[pairKey]*pairState
	rr      int

	// Stats
	QueriesSat    int
	QueriesUnsat  int
	QueriesFailed int

	// engines holds the backends of the pair solvers, in creation order,
	// starting as the set an earlier generator released; built counts the
	// solvers built so far.
	engines *engineSet
	built   int
}

// engineSet is the ordered backends of one generator's pair solvers.
type engineSet struct{ engs []*sat.Solver }

// enginePool recycles pair-solver memory across programs. Release puts a
// generator's backends in as one set in creation order, and the next
// generator's k-th pair solver resets the set's k-th engine (smt.NewOn).
// Programs of one campaign build their pair solvers in the same path-pair
// order, so an engine mostly serves the same pair of the template again.
// Its size still varies between programs and campaigns, so detach drops an
// engine that grew far beyond its last CNF.
var enginePool sync.Pool

// NewGenerator prepares test-case generation over the symbolic paths of an
// instrumented program.
func NewGenerator(paths []*symexec.Path, cfg Config) *Generator {
	classes := 1
	if cfg.Support != nil && cfg.Support.Classes() > 0 {
		classes = cfg.Support.Classes()
	}
	// Refinement-slot streams: one per refined observation slot when the
	// pair's refined lists align, otherwise the generic disjunction.
	slotsFor := func(a, b int) []int {
		if !cfg.Refined {
			return []int{-1}
		}
		na, nb := len(paths[a].RefinedObs()), len(paths[b].RefinedObs())
		if na != nb || na == 0 {
			return []int{-1}
		}
		out := make([]int, na)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Visit coverage classes in a seeded random permutation: with far more
	// classes than test cases per program (M_line has one class per cache
	// set), a fixed order would make every program exercise the same few
	// classes and systematically miss the rest of the space.
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(classes)
	var keys []genKey
	// Same-path pairs first (they are the satisfiable ones for models that
	// observe branch guards), then cross pairs, for every class.
	for _, c := range order {
		for i := range paths {
			for _, s := range slotsFor(i, i) {
				keys = append(keys, genKey{a: i, b: i, class: c, slot: s})
			}
		}
		for i := range paths {
			for j := range paths {
				if i != j {
					for _, s := range slotsFor(i, j) {
						keys = append(keys, genKey{a: i, b: j, class: c, slot: s})
					}
				}
			}
		}
	}
	return &Generator{cfg: cfg, paths: paths, keys: keys,
		streams: make(map[genKey]*stream), pairs: make(map[pairKey]*pairState)}
}

// streamSeed is the per-stream search seed, fed to ResetSearch so every
// class stream searches like a fresh solver seeded for it over the shared
// CNF.
func (g *Generator) streamSeed(k genKey) int64 {
	return g.cfg.Seed*1000003 + int64(k.a)*8191 + int64(k.b)*131 + int64(k.class)*7 + int64(k.slot)
}

// assertPrefix installs the class-independent part of a stream's formula on
// a fresh solver: the pair relation for the slot, plus the requirement that
// the two register vectors differ somewhere (a test case of two identical
// states is vacuous).
func (g *Generator) assertPrefix(s *smt.Solver, a, b, slot int) {
	s.Assert(PairRelationSlot(g.paths[a], g.paths[b], g.cfg.Refined, slot))
	var diff []expr.BoolExpr
	for _, r := range g.cfg.Registers {
		diff = append(diff, expr.Neq(
			expr.NewVar(r+sfx1, 64), expr.NewVar(r+sfx2, 64)))
	}
	if len(diff) > 0 {
		s.Assert(expr.OrB(diff...))
	}
}

// newPairState builds the shared solver for one (path pair, slot), whose
// streams for every support class then query it incrementally.
func (g *Generator) newPairState(pk pairKey) *pairState {
	seed := g.cfg.Seed*1000003 + int64(pk.a)*8191 + int64(pk.b)*131 + int64(pk.slot)
	opts := smt.Options{
		Seed:            seed,
		RandomPhaseProb: g.cfg.RandomPhaseProb,
		MaxConflicts:    g.cfg.MaxConflicts,
	}
	s := g.newSolver(opts)
	if g.cfg.Ctx != nil {
		s.SetContext(g.cfg.Ctx)
	}
	g.assertPrefix(s, pk.a, pk.b, pk.slot)
	return &pairState{solver: s, prefixNames: s.VarNames(), handles: make(map[int]smt.Handle)}
}

// newSolver returns an empty pair solver: over the engine at the next
// position of the recycled set when it has one, else over a new engine.
func (g *Generator) newSolver(opts smt.Options) *smt.Solver {
	if g.engines == nil {
		g.engines, _ = enginePool.Get().(*engineSet)
		if g.engines == nil {
			g.engines = new(engineSet)
		}
	}
	k := g.built
	g.built++
	if k == len(g.engines.engs) {
		g.engines.engs = append(g.engines.engs, nil)
	}
	if g.engines.engs[k] == nil {
		g.engines.engs[k] = sat.New(opts.Seed)
	}
	return smt.NewOn(g.engines.engs[k], opts)
}

// Release ends the generator: its pair solvers' backends go back to the
// engine pool for the next program's generator, and Next reports
// exhaustion from now on.
func (g *Generator) Release() {
	if set := g.detach(); set != nil {
		enginePool.Put(set)
	}
}

// detach is Release without the pool: it ends the generator and returns its
// engine set, or nil if it built none. The set keeps only the engines this
// generator built, so it never outgrows the last program, and of those
// drops each one sat.Solver.Oversized flags, so no position keeps the
// capacity of a much larger CNF it once held.
func (g *Generator) detach() *engineSet {
	g.keys, g.streams, g.pairs = nil, nil, nil
	set := g.engines
	g.engines = nil
	if set != nil {
		clear(set.engs[g.built:])
		set.engs = set.engs[:g.built]
		for k, e := range set.engs {
			if e.Oversized() {
				set.engs[k] = nil
			}
		}
	}
	return set
}

func (g *Generator) newStream(k genKey) *stream {
	pk := pairKey{a: k.a, b: k.b, slot: k.slot}
	ps := g.pairs[pk]
	if ps == nil {
		ps = g.newPairState(pk)
		g.pairs[pk] = ps
	}
	st := &stream{ps: ps, seed: g.streamSeed(k), names: ps.prefixNames}
	if g.cfg.Support != nil {
		h, ok := ps.handles[k.class]
		if !ok {
			h = ps.solver.AssertScoped(
				g.cfg.Support.Constraint(k.class, renameObs(g.paths[k.a].Obs, sfx1)))
			ps.handles[k.class] = h
		}
		st.handle = h
		st.names = unionSorted(ps.prefixNames, h.Names())
	}
	return st
}

// unionSorted merges two sorted, deduplicated string slices.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Next produces the next test case, or ok=false when every stream is
// exhausted.
func (g *Generator) Next() (*TestCase, bool) {
	if g.cfg.Ctx != nil && g.cfg.Ctx.Err() != nil {
		// Cancelled campaign: stop generating rather than burning solver
		// time on results nobody will collect.
		return nil, false
	}
	for tried := 0; tried < len(g.keys); tried++ {
		k := g.keys[g.rr%len(g.keys)]
		g.rr++
		st := g.streams[k]
		if st != nil && st.dead {
			continue
		}
		// Telemetry: snapshot the effort counters before ALL work for this
		// query — including stream creation, whose assertions carry the
		// bit-blasting and Ackermann-expansion cost — so the delta is fully
		// attributable to the query that triggered it. A brand-new solver
		// starts from zero stats, which is exactly its delta; a shared pair
		// solver that pre-exists is snapshotted before the scoped assert.
		// Disabled tracing costs one pointer check (Enabled) and nothing else.
		traced := g.cfg.Trace.Enabled()
		var before smt.Stats
		var t0 time.Time
		if traced {
			t0 = time.Now()
			if ps := g.pairs[pairKey{a: k.a, b: k.b, slot: k.slot}]; ps != nil {
				before = ps.solver.Stats()
			}
		}
		if st == nil {
			st = g.newStream(k)
			g.streams[k] = st
		}
		solver := st.ps.solver
		// Rewind search heuristics so this query behaves like a fresh solver
		// seeded for this stream: preserves the minimal-model (zero-phase,
		// boosted-input) behavior per class even though the CNF and learned
		// clauses are shared across classes.
		solver.ResetSearch(st.seed + st.n*65537)
		st.n++
		status := solver.CheckUnder(st.handle)
		if traced {
			d := solver.Stats().Sub(before)
			g.cfg.Trace.Query(telemetry.QueryEvent{
				Prog: g.cfg.Prog, PathA: k.a, PathB: k.b, Class: k.class, Slot: k.slot,
				Status: statusName(status), Dur: time.Since(t0),
				Conflicts: d.Conflicts, Decisions: d.Decisions, Propagations: d.Propagations,
				BlastHits: d.BlastHits, BlastMisses: d.BlastMisses, AckReads: d.AckermannReads,
			})
		}
		switch status {
		case sat.Sat:
			g.QueriesSat++
			m := solver.Model()
			tc := g.extract(m, k)
			// Block this model so the stream yields a different pair next
			// time. Blocking covers every variable of the relation,
			// including the memory read values, and is scoped to the
			// class's activation literal so sibling classes on the shared
			// solver are unaffected.
			if !solver.BlockVarsUnder(st.handle, st.names) {
				st.dead = true
			}
			return tc, true
		case sat.Unsat:
			g.QueriesUnsat++
			st.dead = true
		default:
			g.QueriesFailed++
			st.dead = true
		}
	}
	return nil, false
}

// statusName maps a SAT status to its trace-schema string.
func statusName(s sat.Status) string {
	switch s {
	case sat.Sat:
		return "sat"
	case sat.Unsat:
		return "unsat"
	}
	return "unknown"
}

func (g *Generator) extract(m *expr.Assignment, k genKey) *TestCase {
	s1, s2 := ExtractStates(m, g.cfg.Registers)
	return &TestCase{S1: s1, S2: s2, PathA: k.a, PathB: k.b, Class: k.class}
}

// ExtractStates reads the two concrete states (s1, s2) out of a model of a
// relation formula built by PairRelation: register values come from the
// _1/_2-suffixed variables and memory images from the renamed memories.
func ExtractStates(m *expr.Assignment, registers []string) (s1, s2 *State) {
	return stateFromModel(m, registers, sfx1), stateFromModel(m, registers, sfx2)
}

// stateFromModel reads one concrete state out of a model: each register's
// value from its sfx-suffixed variable and the memory image of "MEM"+sfx.
// Registers and memory the model leaves unassigned read as zero.
func stateFromModel(m *expr.Assignment, registers []string, sfx string) *State {
	st := &State{Regs: make(map[string]uint64), Mem: expr.NewMemModel(0)}
	for _, r := range registers {
		st.Regs[r] = m.BV[r+sfx]
	}
	if mm := m.Mem["MEM"+sfx]; mm != nil {
		st.Mem = mm.Clone()
	}
	return st
}

// trainingEngines recycles TrainingState's solver backends: each candidate
// path is solved over a reset engine (smt.NewOn), which searches exactly as
// a new one would, and the engine goes back once the model is read.
var trainingEngines sync.Pool

// TrainingState solves for a state taking a different execution path than
// testPath (paper §5.3): executing the program from it first trains the
// branch predictor so that the test states are mispredicted. Returns ok =
// false when the program has no alternative feasible path.
func TrainingState(paths []*symexec.Path, testPath int, registers []string, seed int64) (*State, bool) {
	eng, _ := trainingEngines.Get().(*sat.Solver)
	if eng == nil {
		eng = sat.New(seed)
	}
	defer func() {
		if !eng.Oversized() {
			trainingEngines.Put(eng)
		}
	}()
	for i, p := range paths {
		if i == testPath {
			continue
		}
		s := smt.NewOn(eng, smt.Options{Seed: seed})
		s.Assert(p.Cond)
		if s.Check() != sat.Sat {
			continue
		}
		return stateFromModel(s.Model(), registers, ""), true
	}
	return nil, false
}

// String renders a test case compactly.
func (tc *TestCase) String() string {
	return fmt.Sprintf("testcase paths=(%d,%d) class=%d", tc.PathA, tc.PathB, tc.Class)
}

// Diff lists where the two states differ: sorted register names, plus "mem"
// when the initial memory images differ. Counterexample pattern analysis
// (paper §1: "identify patterns that trigger microarchitectural features in
// unexpected ways") aggregates these over a campaign.
func (tc *TestCase) Diff() []string {
	var out []string
	names := make([]string, 0, len(tc.S1.Regs))
	for r := range tc.S1.Regs {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		if tc.S1.Regs[r] != tc.S2.Regs[r] {
			out = append(out, r)
		}
	}
	if !memEqual(tc.S1.Mem, tc.S2.Mem) {
		out = append(out, "mem")
	}
	return out
}

func memEqual(a, b *expr.MemModel) bool {
	if a.Default != b.Default {
		return false
	}
	for addr, v := range a.Data {
		if b.Get(addr) != v {
			return false
		}
	}
	for addr, v := range b.Data {
		if a.Get(addr) != v {
			return false
		}
	}
	return true
}
