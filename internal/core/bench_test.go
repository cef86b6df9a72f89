package core

import (
	"sort"
	"testing"

	"scamv/internal/gen"
	"scamv/internal/obs"
	"scamv/internal/sat"
)

// benchGenerator returns the generator of one fixed Template A program under
// the M_ct model of the mct campaign, with M_line coverage classes so that
// queries run under an activation scope as in coverage-guided campaigns.
func benchGenerator(b *testing.B) *Generator {
	b.Helper()
	tpl := gen.TemplateA{}
	m := &obs.MCt{Geom: obs.DefaultGeometry, Spec: obs.SpecNone}
	paths, regs := pathsFor(b, m, 1, tpl)
	sort.Strings(regs)
	return NewGenerator(paths, Config{
		Seed:         1,
		Support:      obs.MLine{Geom: obs.DefaultGeometry},
		Registers:    regs,
		MaxConflicts: 200000,
	})
}

// BenchmarkBlastPairRelation measures building one Template A pair solver:
// memory elimination, Ackermann expansion and bit-blasting of the pair
// relation and the register-diff constraint.
func BenchmarkBlastPairRelation(b *testing.B) {
	g := benchGenerator(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.newPairState(pairKey{a: 0, b: 0, slot: -1})
	}
}

// BenchmarkPairQuery measures one enumeration step on a built pair solver:
// ResetSearch, CheckUnder with a coverage scope active, and BlockVarsUnder
// on the model found. Each blocking clause grows the solver, so the pair
// solver is rebuilt, outside the timer, every queriesPerState queries: every
// cycle repeats the same queries on the same clause databases, and the cost
// per op does not drift with b.N.
func BenchmarkPairQuery(b *testing.B) {
	const queriesPerState = 8
	g := benchGenerator(b)
	k := g.keys[0]
	var st *stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % queriesPerState
		if q == 0 {
			b.StopTimer()
			g.pairs = make(map[pairKey]*pairState)
			st = g.newStream(k)
			b.StartTimer()
		}
		s := st.ps.solver
		s.ResetSearch(st.seed + int64(q)*65537)
		if s.CheckUnder(st.handle) != sat.Sat {
			b.Fatalf("query %d: pair relation exhausted", q)
		}
		s.BlockVarsUnder(st.handle, st.names)
	}
}
