package scamv

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchCacheRow is one solving-mode entry in BENCH_cache.json.
type benchCacheRow struct {
	Mode            string  `json:"mode"`
	SharedCache     bool    `json:"shared_cache"`
	Experiments     int     `json:"experiments"`
	Counterexamples int     `json:"counterexamples"`
	Inconclusive    int     `json:"inconclusive"`
	Queries         int     `json:"queries"`
	GenTimeMS       float64 `json:"gen_time_ms"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	ShapeHits       int64   `json:"shape_hits,omitempty"`
	ShapeMisses     int64   `json:"shape_misses,omitempty"`
}

func benchCacheRun(t *testing.T, mode string, shared bool) benchCacheRow {
	t.Helper()
	e := mlineCampaign()
	e.Programs = 4
	e.SharedCache = shared
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	row := benchCacheRow{
		Mode:            mode,
		SharedCache:     shared,
		Experiments:     res.Experiments,
		Counterexamples: res.Counterexamples,
		Inconclusive:    res.Inconclusive,
		Queries:         res.Queries,
		GenTimeMS:       float64(res.GenTime.Microseconds()) / 1e3,
		ShapeHits:       res.ShapeHits,
		ShapeMisses:     res.ShapeMisses,
	}
	if res.GenTime > 0 {
		row.QueriesPerSec = float64(res.Queries) / res.GenTime.Seconds()
	}
	return row
}

// TestWriteBenchCache measures the campaign shape cache against the plain
// incremental solver on the MLine campaign and writes BENCH_cache.json.
// Gated behind BENCH_CACHE=1:
//
//	BENCH_CACHE=1 go test -run TestWriteBenchCache -count=1 .
//
// (or `make bench-cache`). It asserts that the cache changes no count and
// that it is actually exercised (hits and misses both non-zero); the
// generation-time ratio is recorded, not gated.
func TestWriteBenchCache(t *testing.T) {
	if os.Getenv("BENCH_CACHE") == "" {
		t.Skip("set BENCH_CACHE=1 to run the shape-cache benchmark")
	}
	base := benchCacheRun(t, "incremental", false)
	cache := benchCacheRun(t, "incremental+cache", true)

	counts := func(r benchCacheRow) [4]int {
		return [4]int{r.Experiments, r.Counterexamples, r.Inconclusive, r.Queries}
	}
	if counts(cache) != counts(base) {
		t.Errorf("shape cache changed campaign counts: %+v vs baseline %+v", cache, base)
	}
	if cache.ShapeMisses == 0 || cache.ShapeHits == 0 {
		t.Errorf("cache traffic missing (hits %d, misses %d)", cache.ShapeHits, cache.ShapeMisses)
	}
	if base.ShapeHits != 0 || base.ShapeMisses != 0 {
		t.Errorf("cache traffic without a cache (hits %d, misses %d)", base.ShapeHits, base.ShapeMisses)
	}

	speedup := 0.0
	if cache.GenTimeMS > 0 {
		speedup = base.GenTimeMS / cache.GenTimeMS
	}
	out := struct {
		Date         string          `json:"date"`
		Campaign     string          `json:"campaign"`
		CPUs         int             `json:"cpus"`
		GOMAXPROCS   int             `json:"gomaxprocs"`
		Rows         []benchCacheRow `json:"rows"`
		CacheSpeedup float64         `json:"cache_speedup"`
	}{
		Date:         time.Now().UTC().Format("2006-01-02"),
		Campaign:     "MLine-support, TemplateA^3 (8 paths), 128 classes, refined MCt/SpecAll, 4 programs x 40 tests, seed 2021",
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Rows:         []benchCacheRow{base, cache},
		CacheSpeedup: speedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cache.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("gen time: baseline %.1fms, +cache %.1fms (%.2fx) on %d CPUs",
		base.GenTimeMS, cache.GenTimeMS, speedup, runtime.NumCPU())
}
