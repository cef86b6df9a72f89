package scamv

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scamv/internal/journal"
	"scamv/internal/logdb"
	"scamv/internal/telemetry"
)

const (
	// benchRounds is how many times every row runs. Each round runs every
	// row once, in an order rotated by one each round, so a ratio pairs two
	// runs made seconds apart and no row always runs first or last.
	benchRounds = 7
	// benchTarget is the overhead each A/B aims for; benchCeiling is where
	// the median per-round ratio fails the run.
	benchTarget  = 1.05
	benchCeiling = 1.25
)

// benchPresets are the matrix row's platforms, and the sequential row's
// single-platform campaigns.
var benchPresets = []string{"a53", "a72", "m0"}

// benchRow is one configuration of the harness campaign. arm returns the
// campaigns the row times back to back and a stop, run once the clock has
// stopped, that tears down what arm started and applies the row's own gates
// to the results.
type benchRow struct {
	name string
	arm  func(t *testing.T) ([]Experiment, func([]*Result))
}

// benchCampaign is the campaign every row runs: MLine-support on TemplateA^3,
// refined MCt/SpecAll, 8 programs × 40 tests, seed 2021, Parallel 4.
func benchCampaign() Experiment {
	e := mlineCampaign()
	e.Programs = 8
	e.Parallel = 4
	return e
}

func benchPlain(t *testing.T) ([]Experiment, func([]*Result)) {
	return []Experiment{benchCampaign()}, nil
}

// attachTrace arms e with a JSONL tracer and returns a stop that closes it
// and requires the trace to hold records.
func attachTrace(t *testing.T, e *Experiment) func() {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := telemetry.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	e.Trace = tr
	return func() {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := logdb.Load(path, telemetry.CheckRecord)
		if err = errors.Join(err, torn); err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Error("traced run wrote an empty trace")
		}
	}
}

func benchTrace(t *testing.T) ([]Experiment, func([]*Result)) {
	e := benchCampaign()
	stop := attachTrace(t, &e)
	return []Experiment{e}, func([]*Result) { stop() }
}

// benchObservatory is the trace plus the whole observability plane under
// the worst realistic scrape pressure: the debug server, a /metrics scraper
// and a /debug/scamv poller both at 50ms (20x a normal Prometheus
// interval).
func benchObservatory(t *testing.T) ([]Experiment, func([]*Result)) {
	e := benchCampaign()
	stopTrace := attachTrace(t, &e)
	srv, addr, err := telemetry.ServeDebug("127.0.0.1:0", e.Trace)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	paths := []string{"/metrics", "/debug/scamv"}
	scrapes := make([]atomic.Int64, len(paths))
	for i, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if resp, err := http.Get(base + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						scrapes[i].Add(1)
					}
				}
			}
		}()
	}
	return []Experiment{e}, func([]*Result) {
		cancel()
		wg.Wait()
		srv.Close()
		stopTrace()
		for i, path := range paths {
			if scrapes[i].Load() == 0 {
				t.Errorf("observatory run scraped %s zero times", path)
			}
		}
	}
}

// benchJournaled arms the write-ahead journal, one fsync per program
// completion: what a long-lived `scamv -checkpoint` campaign pays. The
// journal it leaves must restore every program.
func benchJournaled(t *testing.T) ([]Experiment, func([]*Result)) {
	e := benchCampaign()
	dir := t.TempDir()
	j, err := journal.Open(dir, e.Name, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Journal = j
	return []Experiment{e}, func([]*Result) {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := journal.Open(dir, e.Name, journal.Options{Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if n := len(r.Restored()); n != e.Programs {
			t.Errorf("journaled run's journal restores %d programs, want %d", n, e.Programs)
		}
	}
}

func benchPlatforms(t *testing.T) []PlatformSpec {
	specs, err := PlatformsFromPresets(benchPresets...)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// benchMatrix is one campaign over every preset: generation runs once,
// execution once per platform.
func benchMatrix(t *testing.T) ([]Experiment, func([]*Result)) {
	e := benchCampaign()
	e.Platforms = benchPlatforms(t)
	return []Experiment{e}, nil
}

// benchSequential is the naive alternative to the matrix: one full
// single-platform campaign per preset, each regenerating the same suite.
func benchSequential(t *testing.T) ([]Experiment, func([]*Result)) {
	var es []Experiment
	for _, spec := range benchPlatforms(t) {
		e := benchCampaign()
		e.Micro = spec.Micro
		es = append(es, e)
	}
	return es, nil
}

// cpuTime returns the process's user plus system CPU time so far, every
// thread included.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchTime runs one row once and returns its wall clock and the process
// CPU time it took, both in ms. CPU time counts what the row computed, not
// how long it waited for a CPU another process held, so it moves less than
// the wall clock on a shared box. The clocks start on a collected heap, so
// no row inherits its predecessor's garbage.
func benchTime(t *testing.T, row benchRow) (wall, cpu float64, res []*Result) {
	es, stop := row.arm(t)
	runtime.GC()
	w0, c0 := time.Now(), cpuTime(t)
	res = make([]*Result, len(es))
	for i, e := range es {
		r, err := Run(e)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		res[i] = r
	}
	wall = float64(time.Since(w0).Microseconds()) / 1e3
	cpu = float64((cpuTime(t) - c0).Microseconds()) / 1e3
	if stop != nil {
		stop(res)
	}
	return wall, cpu, res
}

// benchCounts is what observing or journaling a campaign must not change.
type benchCounts struct {
	Experiments     int `json:"experiments"`
	Counterexamples int `json:"counterexamples"`
	Queries         int `json:"queries"`
}

func countsOf(r *Result) benchCounts {
	return benchCounts{r.Experiments, r.Counterexamples, r.Queries}
}

// benchPlatform is one platform's soundness row, on which the matrix must
// agree with a single-platform campaign.
type benchPlatform struct {
	Platform        string `json:"platform"`
	Verdict         string `json:"verdict"`
	Experiments     int    `json:"experiments"`
	Counterexamples int    `json:"counterexamples"`
	Inconclusive    int    `json:"inconclusive"`
}

func platformRow(p PlatformResult) benchPlatform {
	return benchPlatform{p.Platform, p.Verdict(), p.Experiments, p.Counterexamples, p.Inconclusive}
}

// checkBenchRound applies the count gates to one round's results.
func checkBenchRound(t *testing.T, round int, res map[string][]*Result) {
	t.Helper()
	base := countsOf(res["nil"][0])
	for _, name := range []string{"trace", "observatory", "journaled"} {
		if got := countsOf(res[name][0]); got != base {
			t.Errorf("round %d: %s changed campaign counts: nil %+v, %s %+v", round, name, base, name, got)
		}
	}
	mat, seq := res["matrix"][0].Matrix, res["sequential"]
	if len(mat) != len(seq) {
		t.Fatalf("round %d: matrix produced %d rows, want %d", round, len(mat), len(seq))
	}
	for i, r := range seq {
		m := platformRow(mat[i])
		s := platformRow(PlatformResult{Platform: benchPresets[i], Experiments: r.Experiments,
			Counterexamples: r.Counterexamples, Inconclusive: r.Inconclusive})
		if m != s {
			t.Errorf("round %d: platform %s diverges: matrix %+v, sequential %+v", round, s.Platform, m, s)
		}
	}
}

// benchStats summarises samples by their min and their quartiles,
// interpolated linearly between order statistics.
type benchStats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) benchStats {
	if len(xs) == 0 {
		return benchStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return benchStats{N: len(s), Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
}

// benchComparison is the spread of one A/B's per-round ratios and its
// verdict against the target: met when even the upper quartile is within
// it, missed when even the lower quartile is past it, else unresolved.
// Metric names the clock the ratios divide: "wall" or "cpu".
type benchComparison struct {
	Name    string     `json:"name"`
	Metric  string     `json:"metric"`
	Ratio   benchStats `json:"ratio"`
	Target  float64    `json:"target"`
	Verdict string     `json:"verdict"`
}

// compareRounds pairs num and den by round. A round whose denominator is
// not positive has no ratio and is left out of the count.
func compareRounds(name string, num, den []float64, target float64) benchComparison {
	var ratios []float64
	for i := range num {
		if den[i] > 0 {
			ratios = append(ratios, num[i]/den[i])
		}
	}
	c := benchComparison{Name: name, Ratio: summarize(ratios), Target: target, Verdict: "unresolved"}
	switch {
	case c.Ratio.N == 0:
	case c.Ratio.Q3 <= target:
		c.Verdict = "met"
	case c.Ratio.Q1 > target:
		c.Verdict = "missed"
	}
	return c
}

// TestWriteBench is the one bench harness: every row below runs the same
// campaign benchRounds times, interleaved, and BENCH.json records each row's
// wall-clock and process CPU time spread and each A/B's per-round ratios of
// both with a verdict against the 1.05x target. Gated behind
// BENCH_HARNESS=1:
//
//	BENCH_HARNESS=1 go test -run TestWriteBench -count=1 -v .
//
// (or `make bench-harness`). Gates: observing or journaling changes no
// count; every matrix row equals its single-platform campaign; the trace is
// non-empty, /metrics was scraped and the journal restores every program;
// the median wall-clock ratio of trace/nil, observatory/trace and
// journaled/nil stays within 1.25x; and the matrix's median wall-clock ratio
// to the sequential row is under 0.5x, since generation, which dominates,
// runs once instead of three times. The CPU-time ratios are recorded, not
// gated.
func TestWriteBench(t *testing.T) {
	if os.Getenv("BENCH_HARNESS") == "" {
		t.Skip("set BENCH_HARNESS=1 to run the bench harness")
	}
	rows := []benchRow{
		{"nil", benchPlain},
		{"trace", benchTrace},
		{"observatory", benchObservatory},
		{"journaled", benchJournaled},
		{"matrix", benchMatrix},
		{"sequential", benchSequential},
	}
	benchTime(t, rows[0]) // untimed: the process's cold start falls on no round
	walls := make(map[string][]float64)
	cpus := make(map[string][]float64)
	var last map[string][]*Result
	for round := 0; round < benchRounds; round++ {
		last = make(map[string][]*Result)
		for i := range rows {
			row := rows[(round+i)%len(rows)]
			w, c, res := benchTime(t, row)
			walls[row.name] = append(walls[row.name], w)
			cpus[row.name] = append(cpus[row.name], c)
			last[row.name] = res
		}
		checkBenchRound(t, round, last)
	}

	type rowOut struct {
		Name      string     `json:"name"`
		RunsMS    []float64  `json:"runs_ms"`
		WallMS    benchStats `json:"wall_ms"`
		CPURunsMS []float64  `json:"cpu_runs_ms"`
		CPUMS     benchStats `json:"cpu_ms"`
	}
	out := struct {
		Date        string            `json:"date"`
		Campaign    string            `json:"campaign"`
		NumCPU      int               `json:"num_cpu"`
		GOMAXPROCS  int               `json:"gomaxprocs"`
		GoVersion   string            `json:"go_version"`
		Rounds      int               `json:"rounds"`
		Counts      benchCounts       `json:"counts"`
		Platforms   []benchPlatform   `json:"platforms"`
		Rows        []rowOut          `json:"rows"`
		Comparisons []benchComparison `json:"comparisons"`
	}{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Campaign:   "MLine-support, TemplateA^3 (8 paths), refined MCt/SpecAll, 8 programs x 40 tests, seed 2021, parallel 4; observatory = trace + debug server + 50ms /metrics scraper + 50ms /debug/scamv poller; journaled = fsync-per-program WAL; matrix = a53/a72/m0 in one campaign, sequential = the three as single-platform campaigns",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rounds:     benchRounds,
		Counts:     countsOf(last["nil"][0]),
	}
	for _, p := range last["matrix"][0].Matrix {
		out.Platforms = append(out.Platforms, platformRow(p))
	}
	for _, row := range rows {
		out.Rows = append(out.Rows, rowOut{row.name, walls[row.name], summarize(walls[row.name]),
			cpus[row.name], summarize(cpus[row.name])})
	}
	// The matrix is held to its own 0.5x bound: against 1.05x its verdict
	// could never read anything but met.
	for _, ab := range []struct {
		num, den        string
		target, ceiling float64
	}{
		{"trace", "nil", benchTarget, benchCeiling},
		{"observatory", "trace", benchTarget, benchCeiling},
		{"journaled", "nil", benchTarget, benchCeiling},
		{"matrix", "sequential", 0.5, 0.5},
	} {
		name := ab.num + "/" + ab.den
		c := compareRounds(name, walls[ab.num], walls[ab.den], ab.target)
		c.Metric = "wall"
		cc := compareRounds(name, cpus[ab.num], cpus[ab.den], ab.target)
		cc.Metric = "cpu"
		out.Comparisons = append(out.Comparisons, c, cc)
		for _, x := range []benchComparison{c, cc} {
			t.Logf("%-20s %-4s median %.3fx (q1 %.3f, q3 %.3f): %s", x.Name, x.Metric, x.Ratio.Median, x.Ratio.Q1, x.Ratio.Q3, x.Verdict)
		}
		if c.Ratio.Median >= ab.ceiling {
			t.Errorf("%s median wall-clock ratio %.3fx, want under %.2fx", c.Name, c.Ratio.Median, ab.ceiling)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
