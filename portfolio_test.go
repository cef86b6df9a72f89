package scamv

import (
	"bytes"
	"reflect"
	"testing"

	"scamv/internal/logdb"
)

// runLogged runs a campaign and returns its result plus the log records with
// the wall-clock fields zeroed: every test case in order, with its paths,
// class, verdict, and state diff — the deterministic witness of what the
// campaign generated and observed.
func runLogged(t *testing.T, e Experiment) (*Result, []logdb.Record) {
	t.Helper()
	var buf bytes.Buffer
	db := logdb.NewWriter(&buf)
	e.Log = db
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := logdb.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].GenMicros, recs[i].ExeMicros = 0, 0
	}
	return res, recs
}

// TestPortfolioCampaignByteIdentical is the determinism contract of the
// portfolio backend: the golden MLine campaign produces byte-identical logs
// (same test cases, same verdicts, in the same order) at portfolio sizes 1
// and 4, with and without the shared shape cache — the canonical worker 0
// supplies every model, so racing helpers only change wall-clock time.
func TestPortfolioCampaignByteIdentical(t *testing.T) {
	base := mlineCampaign()
	base.Programs = 2
	base.TestsPerProgram = 20 // full depth belongs to bench-portfolio; keep -race runs affordable

	p1 := base
	p1.Portfolio = 1
	_, log1 := runLogged(t, p1)

	p4 := base
	p4.Portfolio = 4
	p4.Parallel = 4
	res4, log4 := runLogged(t, p4)
	if !reflect.DeepEqual(log1, log4) {
		t.Errorf("portfolio 1 vs 4 campaign logs differ (%d vs %d records)", len(log1), len(log4))
	}
	if res4.Experiments == 0 {
		t.Fatal("portfolio campaign generated nothing")
	}

	p4c := base
	p4c.Portfolio = 4
	p4c.SharedCache = true
	p4c.Parallel = 4
	res4c, log4c := runLogged(t, p4c)
	if !reflect.DeepEqual(log1, log4c) {
		t.Errorf("portfolio 4 + shared cache diverges from portfolio 1 (%d vs %d records)", len(log1), len(log4c))
	}
	if res4c.ShapeMisses == 0 {
		t.Error("shared cache enabled but no shape was ever encoded")
	}
	if res4c.ShapeHits == 0 {
		t.Error("alpha-equivalent MLine programs should hit the shape cache")
	}
}

// TestSharedCacheCampaignByteIdentical checks the shape cache alone (classic
// single-solver backend): results must be byte-identical with the cache on
// or off, while the cache records hits across alpha-equivalent programs.
func TestSharedCacheCampaignByteIdentical(t *testing.T) {
	base := mlineCampaign()
	base.Programs = 3
	base.TestsPerProgram = 20

	off, logOff := runLogged(t, base)

	on := base
	on.SharedCache = true
	resOn, logOn := runLogged(t, on)

	if !reflect.DeepEqual(logOff, logOn) {
		for i := range logOff {
			if i < len(logOn) && !reflect.DeepEqual(logOff[i], logOn[i]) {
				t.Errorf("first divergent record %d:\n off %+v\n on  %+v", i, logOff[i], logOn[i])
				break
			}
		}
		t.Errorf("shared cache changed campaign results (%d vs %d records)", len(logOff), len(logOn))
	}
	if off.Experiments != resOn.Experiments || off.Counterexamples != resOn.Counterexamples ||
		off.Queries != resOn.Queries {
		t.Errorf("counts diverge: off %+v on %+v", off, resOn)
	}
	if resOn.ShapeMisses == 0 || resOn.ShapeHits == 0 {
		t.Errorf("cache traffic missing: hits %d misses %d", resOn.ShapeHits, resOn.ShapeMisses)
	}
	if off.ShapeHits != 0 || off.ShapeMisses != 0 {
		t.Errorf("cache-off campaign reported cache traffic: %+v", off)
	}
}

// TestPortfolioSmokeRace is the CI smoke of the portfolio stack under the
// race detector (make portfolio-smoke): a one-program MLine campaign with
// racing workers, the shared shape cache, and staged-engine parallelism all
// on at once — the exact concurrency mix of a production campaign, shrunk
// until -race can afford it.
func TestPortfolioSmokeRace(t *testing.T) {
	e := mlineCampaign()
	e.Programs = 1
	e.TestsPerProgram = 10
	e.Portfolio = 2
	e.SharedCache = true
	e.Parallel = 2
	res, log := runLogged(t, e)
	if res.Experiments == 0 {
		t.Fatal("smoke campaign generated nothing")
	}
	if len(log) == 0 {
		t.Fatal("smoke campaign logged nothing")
	}
	if res.ShapeMisses == 0 {
		t.Error("shared cache enabled but no shape was encoded")
	}
}
