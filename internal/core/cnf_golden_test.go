package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"scamv/internal/gen"
	"scamv/internal/obs"
	"scamv/internal/sat"
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

// buildCNFRecords builds every pair solver the generator of each fixed
// program would create, in key order, and records its CNF identity.
func buildCNFRecords(t *testing.T) []cnfRecord {
	var out []cnfRecord
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
				if seen[pk] {
					continue
				}
				seen[pk] = true
				ps := g.newPairState(pk)
				vars, clauses, hash := ps.solver.CNFIdentity()
				before := ps.solver.Stats()
				st := ps.solver.Check()
				d := ps.solver.Stats().Sub(before)
				out = append(out, cnfRecord{
					Campaign: c.name, Prog: prog, A: k.a, B: k.b, Slot: k.slot,
					Vars: vars, Clauses: clauses, Hash: fmt.Sprintf("%016x", hash),
					// Clause additions propagate to a level-0 fixpoint, so a
					// solver that is unsat without a single decision or
					// conflict was already unsat at level 0.
					Unsat0: st == sat.Unsat && d.Decisions == 0 && d.Conflicts == 0,
					Names:  ps.prefixNames,
				})
			}
		}
	}
	return out
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
	path := filepath.Join("testdata", "cnf_identity.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
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
	var want []cnfRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
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
