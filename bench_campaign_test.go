package scamv

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchCampaignRow is one engine's entry in BENCH_campaign.json.
type benchCampaignRow struct {
	Engine          string          `json:"engine"`
	Parallel        int             `json:"parallel"`
	Programs        int             `json:"programs"`
	Experiments     int             `json:"experiments"`
	Counterexamples int             `json:"counterexamples"`
	Inconclusive    int             `json:"inconclusive"`
	Queries         int             `json:"queries"`
	GenTimeMS       float64         `json:"gen_time_ms"`
	ExeTimeMS       float64         `json:"exe_time_ms"`
	WallMS          float64         `json:"wall_ms"`
	Stages          []benchStageRow `json:"stages,omitempty"`
}

// benchStageRow flattens one stage.Snapshot for the JSON report.
type benchStageRow struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	In      int64   `json:"in"`
	Out     int64   `json:"out"`
	BusyMS  float64 `json:"busy_ms"`
	WaitMS  float64 `json:"wait_ms"`
	StallMS float64 `json:"stall_ms"`
}

func benchCampaignRun(t *testing.T, monolithic bool, parallel int) benchCampaignRow {
	t.Helper()
	e := mlineCampaign()
	e.Name = "bench-campaign-mline"
	e.Programs = 8
	e.Monolithic = monolithic
	e.Parallel = parallel
	w0 := time.Now()
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(w0)
	engine := "staged"
	if monolithic {
		engine = "monolithic"
	}
	row := benchCampaignRow{
		Engine:          engine,
		Parallel:        parallel,
		Programs:        res.Programs,
		Experiments:     res.Experiments,
		Counterexamples: res.Counterexamples,
		Inconclusive:    res.Inconclusive,
		Queries:         res.Queries,
		GenTimeMS:       float64(res.GenTime.Microseconds()) / 1e3,
		ExeTimeMS:       float64(res.ExeTime.Microseconds()) / 1e3,
		WallMS:          float64(wall.Microseconds()) / 1e3,
	}
	for _, s := range res.Stages {
		row.Stages = append(row.Stages, benchStageRow{
			Name:    s.Name,
			Workers: s.Workers,
			In:      s.In,
			Out:     s.Out,
			BusyMS:  float64(s.Busy.Microseconds()) / 1e3,
			WaitMS:  float64(s.Wait.Microseconds()) / 1e3,
			StallMS: float64(s.Stall.Microseconds()) / 1e3,
		})
	}
	return row
}

// TestWriteBenchCampaign measures campaign wall clock of the staged engine
// against the monolithic worker pool at Parallel=4 on the MLine campaign
// (8 programs) and writes BENCH_campaign.json. Gated behind BENCH_CAMPAIGN=1
// so regular test runs stay fast:
//
//	BENCH_CAMPAIGN=1 go test -run TestWriteBenchCampaign -count=1 .
//
// (or `make bench-campaign`). Both engines must report identical campaign
// counts — the staged engine changes scheduling, not outcomes — and the
// staged engine must not regress generation cost (GenTime measures pure
// solver work, independent of stage overlap). The wall-clock speedup is
// reported, not asserted: on a single-core runner stage overlap cannot beat
// the monolithic pool, so a hard floor would make the benchmark flaky.
func TestWriteBenchCampaign(t *testing.T) {
	if os.Getenv("BENCH_CAMPAIGN") == "" {
		t.Skip("set BENCH_CAMPAIGN=1 to run the campaign-engine benchmark")
	}
	const parallel = 4
	mono := benchCampaignRun(t, true, parallel)
	staged := benchCampaignRun(t, false, parallel)
	if staged.Experiments != mono.Experiments ||
		staged.Counterexamples != mono.Counterexamples ||
		staged.Inconclusive != mono.Inconclusive ||
		staged.Queries != mono.Queries {
		t.Errorf("campaign counts diverge between engines:\nmonolithic %+v\nstaged     %+v", mono, staged)
	}
	// Generation cost must not regress: overlap moves work earlier in wall
	// time, it must not add solver work. 15% headroom absorbs timer noise.
	if mono.GenTimeMS > 0 && staged.GenTimeMS > mono.GenTimeMS*1.15 {
		t.Errorf("staged GenTime %.1fms regressed past monolithic %.1fms (+15%%)",
			staged.GenTimeMS, mono.GenTimeMS)
	}
	speedup := 0.0
	if staged.WallMS > 0 {
		speedup = mono.WallMS / staged.WallMS
	}
	out := struct {
		Date       string           `json:"date"`
		Campaign   string           `json:"campaign"`
		Cores      int              `json:"gomaxprocs"`
		Monolithic benchCampaignRow `json:"monolithic"`
		Staged     benchCampaignRow `json:"staged"`
		Speedup    float64          `json:"wall_clock_speedup"`
	}{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Campaign:   "MLine-support, TemplateA^3 (8 paths), refined MCt/SpecAll, 8 programs x 40 tests, seed 2021, parallel 4",
		Cores:      runtime.GOMAXPROCS(0),
		Monolithic: mono,
		Staged:     staged,
		Speedup:    speedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_campaign.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wall-clock speedup: %.2fx (monolithic %.1fms, staged %.1fms) on %d core(s)",
		speedup, mono.WallMS, staged.WallMS, out.Cores)
	if out.Cores >= 4 && speedup < 1.0 {
		// Only meaningful with real cores to overlap on; single-core CI
		// runners report the ratio without failing.
		t.Errorf("staged engine slower than monolithic at %d cores: %.2fx", out.Cores, speedup)
	}
}
