package scamv

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchMatrixRow is one platform's entry in BENCH_matrix.json, reported both
// for the batched matrix campaign and for the sequential baseline.
type benchMatrixRow struct {
	Platform        string  `json:"platform"`
	Verdict         string  `json:"verdict"`
	Experiments     int     `json:"experiments"`
	Counterexamples int     `json:"counterexamples"`
	Inconclusive    int     `json:"inconclusive"`
	ExeTimeMS       float64 `json:"exe_time_ms"`
}

// TestWriteBenchMatrix measures the batched matrix driver against the naive
// alternative — K full single-platform campaigns run back to back — and
// writes BENCH_matrix.json. Gated behind BENCH_MATRIX=1 so regular test runs
// stay fast:
//
//	BENCH_MATRIX=1 go test -run TestWriteBenchMatrix -count=1 .
//
// (or `make bench-matrix`). Generation is platform-independent, so the
// matrix pays it once where the sequential baseline pays it K times; with
// generation dominating execution the batched campaign must come in under
// 0.5x of the sequential wall clock, and every per-platform verdict count
// must be identical between the two (the batching changes cost, not
// outcomes).
func TestWriteBenchMatrix(t *testing.T) {
	if os.Getenv("BENCH_MATRIX") == "" {
		t.Skip("set BENCH_MATRIX=1 to run the matrix benchmark")
	}
	presets := []string{"a53", "a72", "m0"}

	// Sequential baseline: one full campaign per platform, same seed, so
	// each regenerates the identical suite and then executes it.
	seqStart := time.Now()
	seqRows := make([]benchMatrixRow, 0, len(presets))
	for _, name := range presets {
		e := mlineCampaign()
		e.Name = "bench-matrix-seq-" + name
		specs, err := PlatformsFromPresets(name)
		if err != nil {
			t.Fatal(err)
		}
		e.Micro = specs[0].Micro
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		verdict := "sound"
		if res.Found {
			verdict = "unsound"
		}
		seqRows = append(seqRows, benchMatrixRow{
			Platform:        name,
			Verdict:         verdict,
			Experiments:     res.Experiments,
			Counterexamples: res.Counterexamples,
			Inconclusive:    res.Inconclusive,
			ExeTimeMS:       float64(res.ExeTime.Microseconds()) / 1e3,
		})
	}
	seqWall := time.Since(seqStart)

	// Batched matrix: one campaign, one generation pass, K platform runs
	// per generated test.
	e := mlineCampaign()
	e.Name = "bench-matrix"
	specs, err := PlatformsFromPresets(presets...)
	if err != nil {
		t.Fatal(err)
	}
	e.Platforms = specs
	matStart := time.Now()
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	matWall := time.Since(matStart)

	if len(res.Matrix) != len(seqRows) {
		t.Fatalf("matrix produced %d rows, want %d", len(res.Matrix), len(seqRows))
	}
	matRows := make([]benchMatrixRow, 0, len(res.Matrix))
	for i, row := range res.Matrix {
		mr := benchMatrixRow{
			Platform:        row.Platform,
			Verdict:         row.Verdict(),
			Experiments:     row.Experiments,
			Counterexamples: row.Counterexamples,
			Inconclusive:    row.Inconclusive,
			ExeTimeMS:       float64(row.ExeTime.Microseconds()) / 1e3,
		}
		matRows = append(matRows, mr)
		sr := seqRows[i]
		if mr.Platform != sr.Platform || mr.Experiments != sr.Experiments ||
			mr.Counterexamples != sr.Counterexamples || mr.Inconclusive != sr.Inconclusive ||
			mr.Verdict != sr.Verdict {
			t.Errorf("platform %s counts diverge:\nmatrix     %+v\nsequential %+v", sr.Platform, mr, sr)
		}
	}

	ratio := 0.0
	if seqWall > 0 {
		ratio = matWall.Seconds() / seqWall.Seconds()
	}
	out := struct {
		Date       string           `json:"date"`
		Campaign   string           `json:"campaign"`
		Platforms  []string         `json:"platforms"`
		SeqWallMS  float64          `json:"sequential_wall_ms"`
		MatWallMS  float64          `json:"matrix_wall_ms"`
		WallRatio  float64          `json:"matrix_over_sequential"`
		Matrix     []benchMatrixRow `json:"matrix"`
		Sequential []benchMatrixRow `json:"sequential"`
	}{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Campaign:   "MLine-support, TemplateA^3 (8 paths), 128 classes, refined MCt/SpecAll, 3 programs x 40 tests, seed 2021, K=3 platforms",
		Platforms:  presets,
		SeqWallMS:  float64(seqWall.Microseconds()) / 1e3,
		MatWallMS:  float64(matWall.Microseconds()) / 1e3,
		WallRatio:  ratio,
		Matrix:     matRows,
		Sequential: seqRows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_matrix.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("matrix %.1fms vs sequential %.1fms (%.2fx)",
		out.MatWallMS, out.SeqWallMS, ratio)
	if ratio >= 0.5 {
		t.Errorf("matrix wall clock %.2fx of sequential, want < 0.5x (generation should amortize)", ratio)
	}
}
