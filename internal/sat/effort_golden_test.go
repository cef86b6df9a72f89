package sat

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// enumStep is one Solve of an enumeration run: its status, the search
// effort it cost, and a hash of the model it found.
type enumStep struct {
	Status       string `json:"status"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Learnt       int64  `json:"learnt"`
	Model        string `json:"model,omitempty"`
}

// enumRun is the step sequence of one enumeration instance.
type enumRun struct {
	Name  string     `json:"name"`
	Steps []enumStep `json:"steps"`
}

// enumInstance is one enumeration scenario: a random 3-SAT instance and the
// solver options it runs under.
type enumInstance struct {
	seed        int64
	vars        int
	clauses     int
	randomPhase float64
	boost       bool // BoostVar the first 16 variables, as the blaster boosts inputs
	assume      bool // solve under an activation literal guarding a few clauses
	budget      int64
}

func enumInstances() []enumInstance {
	return []enumInstance{
		{seed: 1, vars: 150, clauses: 540},
		{seed: 2, vars: 150, clauses: 560, boost: true},
		{seed: 3, vars: 150, clauses: 560, randomPhase: 0.1},
		{seed: 4, vars: 150, clauses: 540, boost: true, assume: true},
		{seed: 5, vars: 200, clauses: 800, randomPhase: 0.05, boost: true},
		{seed: 6, vars: 200, clauses: 840, budget: 20},
	}
}

// enumRounds bounds the models each instance enumerates.
const enumRounds = 10

// runEnumeration enumerates models the way the incremental SMT layer's
// non-resetting users do: Solve, block the model with AddClause, and Solve
// again, with no ResetSearch in between. Between queries it also allocates
// a fresh variable, boosts it and an existing variable, and ties the fresh
// one into the formula, so every point where the VSIDS heap is touched
// after a backtrack to level 0 (AddClause, NewVar, BoostVar, the next
// search) is on the path. s must be in the state New(in.seed) returns.
func runEnumeration(s *Solver, in enumInstance) enumRun {
	s.RandomPhaseProb = in.randomPhase
	s.MaxConflicts = in.budget
	addAll(s, in.vars, randomCNF3(in.seed, in.vars, in.clauses))
	if in.boost {
		for v := 0; v < 16; v++ {
			s.BoostVar(v, float64(1+v%3))
		}
	}
	var assumptions []Lit
	if in.assume {
		act := MkLit(s.NewVar(), false)
		for _, c := range randomCNF3(in.seed+100, in.vars, 12) {
			s.AddClause(append([]Lit{act.Neg()}, c...)...)
		}
		assumptions = []Lit{act}
	}
	run := enumRun{Name: fmt.Sprintf("seed%d/%dx%d", in.seed, in.vars, in.clauses)}
	for round := 0; round < enumRounds; round++ {
		before := s.Stats()
		st := s.Solve(assumptions...)
		d := s.Stats().Sub(before)
		step := enumStep{Status: st.String(), Conflicts: d.Conflicts,
			Decisions: d.Decisions, Propagations: d.Propagations, Learnt: d.Learnt}
		if st == Sat {
			h := fnv.New64a()
			for _, b := range s.Model() {
				if b {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			step.Model = fmt.Sprintf("%016x", h.Sum64())
		}
		run.Steps = append(run.Steps, step)
		switch st {
		case Unknown:
			s.MaxConflicts = 0 // a paused search resumes unbounded
			continue
		case Unsat:
			return run
		}
		block := make([]Lit, 0, 32)
		for v := 0; v < 32; v++ {
			block = append(block, MkLit(v, s.Value(v)))
		}
		if !s.AddClause(block...) {
			return run
		}
		fresh := s.NewVar()
		s.BoostVar(fresh, 2)
		s.BoostVar(round%in.vars, 1)
		s.AddClause(MkLit(fresh, false), MkLit(round, round%2 == 0), MkLit(round+40, false))
	}
	return run
}

// TestEnumerationEffortGolden pins the search of the non-resetting
// enumeration path: for every instance, each Solve's status, conflict,
// decision, propagation and learnt-clause counts, and model. Solve orders
// its decisions through the VSIDS heap, so a change to when variables
// re-enter the heap after a backtrack must keep this golden. Regenerate
// testdata/enumeration_effort.json with UPDATE_GOLDEN=1 go test
// ./internal/sat -run EnumerationEffortGolden only for a deliberate change
// to the search, and say so in the commit message.
func TestEnumerationEffortGolden(t *testing.T) {
	var got []enumRun
	for _, in := range enumInstances() {
		got = append(got, runEnumeration(New(in.seed), in))
	}
	path := filepath.Join("testdata", "enumeration_effort.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want []enumRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumeration deviates from golden:\n got %+v\nwant %+v", got, want)
	}
	var conflicts, unknown int64
	for _, r := range got {
		for _, st := range r.Steps {
			conflicts += st.Conflicts
			if st.Status == "unknown" {
				unknown++
			}
		}
	}
	if conflicts == 0 || unknown == 0 {
		t.Fatalf("golden exercises %d conflicts and %d budget pauses; want both", conflicts, unknown)
	}
}
