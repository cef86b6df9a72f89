package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"scamv/internal/expr"
	"scamv/internal/gen"
	"scamv/internal/obs"
	"scamv/internal/sat"
	"scamv/internal/smt"
)

// cnfRecord is the CNF identity of one pair solver right after the
// generator built it: the prefix formulas asserted, no query run yet.
type cnfRecord struct {
	Campaign string   `json:"campaign"`
	Prog     int64    `json:"prog"`
	A        int      `json:"a"`
	B        int      `json:"b"`
	Slot     int      `json:"slot"`
	Vars     int      `json:"vars"`
	Clauses  int      `json:"clauses"`
	Hash     string   `json:"hash"`
	Unsat0   bool     `json:"unsat0"` // unsat at decision level 0
	Names    []string `json:"names"`
}

// cnfCampaign is one Table 1 model pair the identity golden covers, in the
// shape the CLI presets build it (mct-a and mpart).
type cnfCampaign struct {
	name string
	tpl  gen.Template
	m    obs.ModelPair
	cfg  Config
}

func cnfCampaigns() []cnfCampaign {
	ar := obs.ARRegion{Lo: 61, Hi: 127, Geom: obs.DefaultGeometry}
	return []cnfCampaign{
		{"mct-a/unguided", gen.TemplateA{}, &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone}, Config{}},
		{"mct-a/refined", gen.TemplateA{}, &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecAll, MaxShadowStmts: 16}, Config{Refined: true}},
		{"mpart/unguided", gen.Stride{}, &obs.MPart{AR: ar}, Config{}},
		{"mpart/refined", gen.Stride{}, &obs.MPart{AR: ar, WithRefinement: true}, Config{Refined: true, Support: obs.MLine{Geom: obs.DefaultGeometry}}},
	}
}

// forEachPairSolver visits, for every fixed program of every campaign, the
// first stream key of each (path pair, slot) in key order, with the
// program's generator; fn builds whatever it needs from the key.
func forEachPairSolver(t *testing.T, fn func(c cnfCampaign, prog int64, g *Generator, k genKey)) {
	for _, c := range cnfCampaigns() {
		for prog := int64(1); prog <= 3; prog++ {
			paths, regs := pathsFor(t, c.m, prog, c.tpl)
			sort.Strings(regs)
			cfg := c.cfg
			cfg.Seed, cfg.Registers, cfg.MaxConflicts = prog, regs, 200000
			g := NewGenerator(paths, cfg)
			seen := map[pairKey]bool{}
			for _, k := range g.keys {
				pk := pairKey{a: k.a, b: k.b, slot: k.slot}
				if !seen[pk] {
					seen[pk] = true
					fn(c, prog, g, k)
				}
			}
		}
	}
}

// unsatAtLevel0 reports whether a freshly built pair solver is unsat before
// any decision. Clause additions propagate to a level-0 fixpoint, so a
// solver that is unsat without a single decision or conflict was already
// unsat at level 0. The check runs a search, so s must not be reused.
func unsatAtLevel0(s *smt.Solver) bool {
	before := s.Stats()
	st := s.Check()
	d := s.Stats().Sub(before)
	return st == sat.Unsat && d.Decisions == 0 && d.Conflicts == 0
}

// buildCNFRecords builds every pair solver the generator of each fixed
// program would create, in key order, and records its CNF identity.
func buildCNFRecords(t *testing.T) []cnfRecord {
	var out []cnfRecord
	forEachPairSolver(t, func(c cnfCampaign, prog int64, g *Generator, k genKey) {
		ps := g.newPairState(pairKey{a: k.a, b: k.b, slot: k.slot})
		vars, clauses, hash := ps.solver.CNFIdentity()
		out = append(out, cnfRecord{
			Campaign: c.name, Prog: prog, A: k.a, B: k.b, Slot: k.slot,
			Vars: vars, Clauses: clauses, Hash: fmt.Sprintf("%016x", hash),
			Unsat0: unsatAtLevel0(ps.solver),
			Names:  ps.prefixNames,
		})
	})
	return out
}

// goldenFile compares got against testdata/name through want (a pointer to
// a value of got's type). With UPDATE_GOLDEN set it first rewrites the file
// from got, indenting the JSON by indent.
func goldenFile(t *testing.T, name, indent string, got, want any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", indent)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
}

// TestPairSolverCNFIdentity pins the CNF of every pair solver built for
// fixed mct-a and mpart programs (refined and unrefined): variable count,
// clause count and clause-database hash must match the golden, which was
// recorded before the lean-construction work. Solvers that are unsat at
// level 0 are exempt from the size and hash checks, because encoding stops
// once the formula is known unsat; they must still answer Unsat and record
// the same prefix variable names. Regenerate testdata/cnf_identity.json
// with UPDATE_GOLDEN=1 go test ./internal/core/ -run CNFIdentity only for a
// deliberate encoding change, and say so in the commit message.
func TestPairSolverCNFIdentity(t *testing.T) {
	got := buildCNFRecords(t)
	var want []cnfRecord
	goldenFile(t, "cnf_identity.json", " ", got, &want)
	if len(got) != len(want) {
		t.Fatalf("built %d pair solvers, golden has %d", len(got), len(want))
	}
	live := 0
	for i, g := range got {
		w := want[i]
		id := fmt.Sprintf("%s prog %d pair (%d,%d) slot %d", w.Campaign, w.Prog, w.A, w.B, w.Slot)
		if g.Campaign != w.Campaign || g.Prog != w.Prog || g.A != w.A || g.B != w.B || g.Slot != w.Slot {
			t.Fatalf("record %d is %s prog %d pair (%d,%d) slot %d, golden has %s",
				i, g.Campaign, g.Prog, g.A, g.B, g.Slot, id)
		}
		if g.Unsat0 != w.Unsat0 {
			t.Errorf("%s: unsat at level 0 = %v, golden %v", id, g.Unsat0, w.Unsat0)
		}
		if !slices.Equal(g.Names, w.Names) {
			t.Errorf("%s: prefix names %v, golden %v", id, g.Names, w.Names)
		}
		if w.Unsat0 {
			continue
		}
		live++
		if g.Vars != w.Vars || g.Clauses != w.Clauses || g.Hash != w.Hash {
			t.Errorf("%s: CNF %d vars / %d clauses / %s, golden %d / %d / %s",
				id, g.Vars, g.Clauses, g.Hash, w.Vars, w.Clauses, w.Hash)
		}
	}
	if live == 0 || live == len(want) {
		t.Fatalf("golden covers %d live of %d solvers; it must hold both live and level-0-unsat ones", live, len(want))
	}
}

// effortQuery is one enumeration step on a pair solver: its status, the
// search effort it cost, and a hash of the model it found.
type effortQuery struct {
	Status       string `json:"status"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Model        string `json:"model,omitempty"`
}

// effortRecord is the query sequence of one live pair solver.
type effortRecord struct {
	Campaign string        `json:"campaign"`
	Prog     int64         `json:"prog"`
	A        int           `json:"a"`
	B        int           `json:"b"`
	Slot     int           `json:"slot"`
	Queries  []effortQuery `json:"queries"`
}

// effortRounds is how many enumeration steps each pair solver runs.
const effortRounds = 4

// buildEffortRecords runs, on every live pair solver of the CNF identity
// fixture, the generator's enumeration step (ResetSearch with the stream's
// seed, CheckUnder the stream's class scope, BlockVarsUnder the model) up
// to effortRounds times, and records each query.
func buildEffortRecords(t *testing.T) []effortRecord {
	var out []effortRecord
	forEachPairSolver(t, func(c cnfCampaign, prog int64, g *Generator, k genKey) {
		pk := pairKey{a: k.a, b: k.b, slot: k.slot}
		if unsatAtLevel0(g.newPairState(pk).solver) {
			return
		}
		st := g.newStream(k)
		s := st.ps.solver
		rec := effortRecord{Campaign: c.name, Prog: prog, A: k.a, B: k.b, Slot: k.slot}
		for n := int64(0); n < effortRounds; n++ {
			before := s.Stats()
			s.ResetSearch(st.seed + n*65537)
			status := s.CheckUnder(st.handle)
			d := s.Stats().Sub(before)
			q := effortQuery{Status: statusName(status),
				Conflicts: d.Conflicts, Decisions: d.Decisions, Propagations: d.Propagations}
			if status == sat.Sat {
				q.Model = modelHash(t, s.Model())
			}
			rec.Queries = append(rec.Queries, q)
			if status != sat.Sat || !s.BlockVarsUnder(st.handle, st.names) {
				break
			}
		}
		out = append(out, rec)
	})
	return out
}

// modelHash is an FNV-1a hash of an assignment's JSON form, in which
// encoding/json writes every map in sorted key order.
func modelHash(t *testing.T, m *expr.Assignment) string {
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPairSolverSearchEffort pins the search of every live pair solver of
// the CNF identity fixture: for each enumeration step, its status, its
// conflict, decision and propagation counts, and its model. The CNF alone
// does not fix the search; the order in which propagation visits watchers
// does, so a change to the solver's clause or watch storage must keep this
// golden. Regenerate testdata/search_effort.json with UPDATE_GOLDEN=1 go
// test ./internal/core/ -run SearchEffort only for a deliberate change to
// the search, and say so in the commit message.
func TestPairSolverSearchEffort(t *testing.T) {
	got := buildEffortRecords(t)
	var want []effortRecord
	goldenFile(t, "search_effort.json", " ", got, &want)
	if len(got) != len(want) {
		t.Fatalf("ran %d live pair solvers, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d deviates from golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
