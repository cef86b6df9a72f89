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
