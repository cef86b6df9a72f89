package smt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"scamv/internal/expr"
	"scamv/internal/sat"
)

// pairFormulas builds a small pair-relation-shaped formula set over renamable
// register names: two memory reads, an equality coupling, and a bound.
func pairFormulas(r1, r2, mem string) []expr.BoolExpr {
	x, y := expr.V64(r1), expr.V64(r2)
	m := expr.NewMemVar(mem)
	return []expr.BoolExpr{
		expr.Eq(expr.NewRead(m, x), expr.NewRead(m, expr.Add(y, expr.C64(8)))),
		expr.Eq(expr.And(x, expr.C64(0xfff)), expr.And(y, expr.C64(0xfff))),
		expr.Ult(x, expr.C64(1<<20)),
		expr.Ult(y, expr.C64(1<<20)),
	}
}

func buildUncached(opts Options, fs []expr.BoolExpr) *Solver {
	s := New(opts)
	for _, f := range fs {
		s.Assert(f)
	}
	return s
}

func cnfHash(t *testing.T, s *Solver) uint64 {
	t.Helper()
	return s.sat.CNFHash()
}

// enumerate checks, models, and blocks nTimes, returning the model sequence.
func enumerate(t *testing.T, s *Solver, fs []expr.BoolExpr, names []string, nTimes int) []*expr.Assignment {
	t.Helper()
	var models []*expr.Assignment
	for i := 0; i < nTimes; i++ {
		if st := s.Check(); st != sat.Sat {
			break
		}
		m := s.Model()
		for _, f := range fs {
			if !m.EvalBool(f) {
				t.Fatalf("model %d does not satisfy %s", i, f)
			}
		}
		models = append(models, m)
		if !s.BlockVars(names) {
			t.Fatalf("model %d: nothing blocked", i)
		}
	}
	return models
}

// TestShapeCacheMatchesUncached is the byte-identity property of the cache:
// a cache-instantiated solver carries the same CNF (hash over clauses and
// level-0 trail) as a solver that encoded the formulas directly, and the
// whole enumerate-and-block conversation yields identical model sequences.
func TestShapeCacheMatchesUncached(t *testing.T) {
	fs := pairFormulas("R3", "R7", "MEM")
	opts := Options{Seed: 2021}

	plain := buildUncached(opts, fs)
	sc := NewShapeCache()
	cached, hit := sc.Instantiate(opts, fs)
	if hit {
		t.Fatalf("first instantiation reported a hit")
	}

	if hp, hc := cnfHash(t, plain), cnfHash(t, cached); hp != hc {
		t.Fatalf("CNF hash mismatch: uncached %#x cached %#x", hp, hc)
	}
	if got, want := cached.VarNames(), plain.VarNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("VarNames mismatch:\n cached %v\n plain  %v", got, want)
	}
	if got, want := cached.ReadVarNames("MEM"), plain.ReadVarNames("MEM"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadVarNames mismatch: cached %v plain %v", got, want)
	}

	names := []string{"R3", "R7"}
	mp := enumerate(t, plain, fs, names, 5)
	mc := enumerate(t, cached, fs, names, 5)
	if len(mp) != len(mc) {
		t.Fatalf("model counts differ: uncached %d cached %d", len(mp), len(mc))
	}
	for i := range mp {
		if !reflect.DeepEqual(mp[i].BV, mc[i].BV) {
			t.Fatalf("model %d differs:\n uncached %v\n cached   %v", i, mp[i].BV, mc[i].BV)
		}
	}
}

// TestShapeCacheScopedQueries drives the incremental-engine conversation
// shape (scoped asserts + CheckUnder + scoped blocking) through a cached
// solver and checks it against the uncached equivalent.
func TestShapeCacheScopedQueries(t *testing.T) {
	fs := pairFormulas("R1", "R2", "MEM")
	opts := Options{Seed: 7}

	run := func(s *Solver) ([]string, []uint64) {
		x, y := expr.V64("R1"), expr.V64("R2")
		h := s.AssertScoped(expr.Eq(expr.Xor(x, y), expr.C64(0x4000)))
		var vals []uint64
		for i := 0; i < 4; i++ {
			s.ResetSearch(int64(i))
			if st := s.CheckUnder(h); st != sat.Sat {
				break
			}
			m := s.Model()
			vals = append(vals, m.BV["R1"], m.BV["R2"])
			if !s.BlockVarsUnder(h, []string{"R1", "R2"}) {
				break
			}
		}
		return h.Names(), vals
	}

	plain := buildUncached(opts, fs)
	sc := NewShapeCache()
	cached, _ := sc.Instantiate(opts, fs)

	np, vp := run(plain)
	nc, vc := run(cached)
	if !reflect.DeepEqual(np, nc) {
		t.Fatalf("scoped handle names differ: uncached %v cached %v", np, nc)
	}
	if !reflect.DeepEqual(vp, vc) {
		t.Fatalf("scoped model sequences differ:\n uncached %v\n cached   %v", vp, vc)
	}
	if len(vp) == 0 {
		t.Fatalf("scoped query never sat")
	}
}

// TestShapeCacheAlphaEquivalentPrograms is the point of the cache: programs
// of one template differing only in register allocation share one prototype.
func TestShapeCacheAlphaEquivalentPrograms(t *testing.T) {
	sc := NewShapeCache()
	progs := [][2]string{{"R0", "R1"}, {"R5", "R9"}, {"R2", "R8"}, {"R11", "R4"}}

	var hashes []uint64
	for i, p := range progs {
		fs := pairFormulas(p[0], p[1], "MEM")
		s, hit := sc.Instantiate(Options{Seed: int64(i)}, fs)
		if hit != (i > 0) {
			t.Fatalf("program %d: hit=%v", i, hit)
		}
		hashes = append(hashes, cnfHash(t, s))
		if st := s.Check(); st != sat.Sat {
			t.Fatalf("program %d: %v", i, st)
		}
		m := s.Model()
		for _, f := range fs {
			if !m.EvalBool(f) {
				t.Fatalf("program %d: model in wrong name space: %s", i, f)
			}
		}
		if _, ok := m.BV[p[0]]; !ok {
			t.Fatalf("program %d: model missing %s: %v", i, p[0], m.BV)
		}
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Fatalf("alpha-equivalent programs got different CNF skeletons: %#x vs %#x", hashes[i], hashes[0])
		}
	}
	st := sc.Stats()
	if st.Misses != 1 || st.Hits != int64(len(progs)-1) || st.Shapes != 1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits / 1 shape", st, len(progs)-1)
	}

	// A structurally different formula set must not collide.
	other := []expr.BoolExpr{expr.Ult(expr.V64("R0"), expr.C64(4))}
	if _, hit := sc.Instantiate(Options{}, other); hit {
		t.Fatalf("different shape reported a cache hit")
	}
	if st := sc.Stats(); st.Shapes != 2 {
		t.Fatalf("expected 2 shapes, got %d", st.Shapes)
	}
}

// TestShapeCacheConcurrent hammers one shape from many goroutines (run under
// -race): the prototype must be blasted exactly once, every instantiation
// must carry the identical CNF skeleton, and per-goroutine solving must not
// interfere.
func TestShapeCacheConcurrent(t *testing.T) {
	sc := NewShapeCache()
	const workers = 16
	hashes := make([]uint64, workers)
	verdicts := make([]sat.Status, workers)
	models := make([]map[string]uint64, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r1 := fmt.Sprintf("R%d", w)
			r2 := fmt.Sprintf("Q%d", w)
			fs := pairFormulas(r1, r2, "MEM")
			s, _ := sc.Instantiate(Options{Seed: 42}, fs)
			hashes[w] = s.sat.CNFHash()
			verdicts[w] = s.Check()
			if verdicts[w] == sat.Sat {
				m := s.Model()
				models[w] = map[string]uint64{"a": m.BV[r1], "b": m.BV[r2]}
			}
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if hashes[w] != hashes[0] {
			t.Fatalf("worker %d CNF hash %#x != worker 0 %#x", w, hashes[w], hashes[0])
		}
		if verdicts[w] != verdicts[0] {
			t.Fatalf("worker %d verdict %v != worker 0 %v", w, verdicts[w], verdicts[0])
		}
		if !reflect.DeepEqual(models[w], models[0]) {
			t.Fatalf("worker %d model %v != worker 0 %v (same seed, same shape)", w, models[w], models[0])
		}
	}
	st := sc.Stats()
	if st.Misses != 1 {
		t.Fatalf("prototype built %d times, want exactly 1", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
	}
}

// TestShapeCacheRejectsPlaceholderNames: a caller variable named "@0",
// introduced after instantiation, would silently alias the prototype's
// canonical placeholder for a different variable. The renamer must refuse
// the reserved namespace loudly instead of corrupting the encoding.
func TestShapeCacheRejectsPlaceholderNames(t *testing.T) {
	sc := NewShapeCache()
	s, _ := sc.Instantiate(Options{Seed: 1}, pairFormulas("R1", "R2", "MEM"))
	defer func() {
		if recover() == nil {
			t.Fatal("asserting a variable named \"@0\" did not panic")
		}
	}()
	s.Assert(expr.Ult(expr.V64("@0"), expr.C64(4)))
}

// TestShapeCacheRejectsPlaceholderNamesAtInstantiation covers the other
// boundary: formulas whose variables already use the reserved namespace must
// be refused when the renamer bijection is built.
func TestShapeCacheRejectsPlaceholderNamesAtInstantiation(t *testing.T) {
	sc := NewShapeCache()
	defer func() {
		if recover() == nil {
			t.Fatal("instantiating over a variable named \"@0\" did not panic")
		}
	}()
	sc.Instantiate(Options{}, []expr.BoolExpr{expr.Ult(expr.V64("@0"), expr.C64(4))})
}

// TestShapeCacheMemoryModel checks memory-image reconstruction through the
// rename boundary: read variables, their addresses, and the reassembled
// memory must all land back in caller space.
func TestShapeCacheMemoryModel(t *testing.T) {
	x := expr.V64("addr")
	m := expr.NewMemVar("MEM")
	fs := []expr.BoolExpr{
		expr.Eq(expr.NewRead(m, x), expr.C64(0xdead)),
		expr.Eq(x, expr.C64(0x1000)),
	}
	sc := NewShapeCache()
	s, _ := sc.Instantiate(Options{Seed: 1}, fs)
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("got %v", st)
	}
	model := s.Model()
	mm, ok := model.Mem["MEM"]
	if !ok {
		t.Fatalf("model has no MEM image: %v", model.Mem)
	}
	if got := mm.Get(0x1000); got != 0xdead {
		t.Fatalf("MEM[0x1000] = %#x, want 0xdead", got)
	}
	rv := s.ReadVarNames("MEM")
	if len(rv) != 1 || rv[0] != "$rd_MEM_1" {
		t.Fatalf("ReadVarNames = %v, want [$rd_MEM_1]", rv)
	}
}
