// Command scamv runs the validation campaigns of the paper's evaluation
// (Table 1 and the Fig. 7 table) on the simulated Cortex-A53 platform and
// prints the result tables.
//
// Usage:
//
//	scamv -exp all                 # every campaign at reduced scale
//	scamv -exp mpart -scale 1.0    # one campaign at paper scale
//	scamv -exp mct-a -programs 20  # explicit program count
//	scamv -log run.jsonl           # also append per-experiment records
//	scamv -trace t.jsonl -progress # telemetry trace + live progress line
//	scamv -report t.jsonl          # log aggregates or trace latency report
//	scamv -report-diff old.jsonl new.jsonl
//	                               # align two traces: latency deltas, solver
//	                               # effort regressions, verdict drift
//	scamv -debug-addr :6060        # /metrics, /debug/scamv, pprof
//	scamv -chaos heavy -fail-policy degrade -retries 2 -exec-timeout 100ms
//	                               # fault-injected campaign that degrades
//	                               # instead of aborting
//	scamv -checkpoint state/       # durable journal, one fsync per program:
//	                               # a crash or SIGKILL loses at most the
//	                               # programs in flight
//	scamv -resume state/           # reload the journals, skip completed
//	                               # programs, reproduce the rest exactly
//
// A first SIGINT/SIGTERM drains and journals in-flight programs, prints the
// partial tables, and exits 3 (resumable); a second aborts immediately with
// exit 130.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"scamv"
	"scamv/internal/analysis"
	"scamv/internal/faultinject"
	"scamv/internal/gen"
	"scamv/internal/journal"
	"scamv/internal/logdb"
	"scamv/internal/micro"
	"scamv/internal/telemetry"
)

func main() {
	// The body lives in run so deferred cleanup (log/trace flush, progress
	// stop, debug server close) happens before the process exits with the
	// drain status code.
	os.Exit(run())
}

func run() int {
	var (
		exp       = flag.String("exp", "all", "campaign: all, mpart, mpart-pa, mct-a, mct-b, fig7-c, mspec1-b, straight, mtime, pcmodel")
		scale     = flag.Float64("scale", 0.05, "fraction of the paper-scale program counts to run")
		programs  = flag.Int("programs", 0, "override the number of programs (0 = scale * paper count)")
		tests     = flag.Int("tests", 0, "override test cases per program (0 = preset)")
		seed      = flag.Int64("seed", 2021, "campaign seed")
		logPath   = flag.String("log", "", "append per-experiment JSON records to this file")
		report    = flag.String("report", "", "analyse a previously written log or trace file and exit")
		reportDif = flag.String("report-diff", "", "diff this baseline trace against the trace given as the positional argument, then exit")
		strict    = flag.Bool("strict", false, "with -report/-report-diff: fail on a torn trailing line instead of dropping it with a warning")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "programs in flight")
		trace     = flag.String("trace", "", "write a JSONL telemetry trace (spans, solver queries, verdicts) to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/scamv and /debug/pprof on this address")
		progress  = flag.Bool("progress", false, "print a live progress line on stderr")
		execTO    = flag.Duration("exec-timeout", 0, "per-execution deadline (0 = none)")
		retries   = flag.Int("retries", 0, "retry budget per execution for transient failures")
		policy    = flag.String("fail-policy", "failfast", "on exhausted retries: failfast (abort campaign) or degrade (skip and continue)")
		chaos     = flag.String("chaos", "off", "fault-injection profile: off, light, or heavy (deterministic per -seed)")
		matrix    = flag.Bool("matrix", false, "run each campaign as a platform matrix over -platforms (default a53,a72,m0)")
		platNames = flag.String("platforms", "", "comma-separated platform presets for the matrix (implies -matrix); see -platforms=help")
		ckptDir   = flag.String("checkpoint", "", "write a durable campaign journal, fsynced once per program, under this directory (one subdirectory per campaign)")
		resumeDir = flag.String("resume", "", "resume campaigns from the journals in this directory, skipping journaled programs (implies -checkpoint DIR)")
	)
	flag.Parse()
	if *programs < 0 {
		return usageError("-programs %d: must not be negative (0 = scale * paper count)", *programs)
	}
	if *tests < 0 {
		return usageError("-tests %d: must not be negative (0 = preset)", *tests)
	}

	if *platNames == "help" {
		fmt.Println("platform presets:", strings.Join(micro.PresetNames(), ", "))
		return 0
	}
	resuming := *resumeDir != ""
	if resuming {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			fatal(fmt.Errorf("-checkpoint %s conflicts with -resume %s (resume implies checkpointing into the same directory)", *ckptDir, *resumeDir))
		}
		*ckptDir = *resumeDir
	}
	var platforms []scamv.PlatformSpec
	if *matrix || *platNames != "" {
		names := *platNames
		if names == "" {
			names = "a53,a72,m0"
		}
		var err error
		platforms, err = scamv.PlatformsFromPresets(strings.Split(names, ",")...)
		if err != nil {
			fatal(err)
		}
	}

	chaosProf, err := faultinject.Named(*chaos)
	if err != nil {
		fatal(err)
	}
	failPolicy, err := scamv.ParseFailPolicy(*policy)
	if err != nil {
		fatal(err)
	}

	if *reportDif != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-report-diff needs exactly one positional argument: the new trace (got %d)", flag.NArg()))
		}
		if err := reportDiff(*reportDif, flag.Arg(0), *strict); err != nil {
			fatal(err)
		}
		return 0
	}
	if *report != "" {
		if err := analyse(*report, *strict); err != nil {
			fatal(err)
		}
		return 0
	}

	var db *logdb.Writer
	if *logPath != "" {
		var err error
		db, err = logdb.Create(*logPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "scamv:", err)
			}
		}()
	}

	// The tracer exists when any telemetry consumer is on: -trace feeds it
	// a file; -progress and -debug-addr run it in aggregates-only mode.
	var tr *telemetry.Tracer
	if *trace != "" {
		var err error
		tr, err = telemetry.Create(*trace)
		if err != nil {
			fatal(err)
		}
	} else if *progress || *debugAddr != "" {
		tr = telemetry.New(nil)
	}
	if tr.Enabled() {
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "scamv:", err)
			}
		}()
	}
	if *debugAddr != "" {
		srv, addr, err := telemetry.ServeDebug(*debugAddr, tr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		// Report the actually-bound address (meaningful with :0).
		fmt.Fprintf(os.Stderr, "scamv: debug endpoint on http://%s/debug/scamv (metrics: /metrics)\n", addr)
	}
	if *progress {
		stop := telemetry.StartProgress(os.Stderr, tr, time.Second)
		defer stop()
	}

	n := func(paper int) int {
		if *programs > 0 {
			return *programs
		}
		v := int(float64(paper) * *scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	tn := func(preset int) int {
		if *tests > 0 {
			return *tests
		}
		return preset
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes the drain channel —
	// every campaign finishes its in-flight programs, journals them, and
	// returns a partial (resumable) Result; campaigns not yet started are
	// skipped. A second signal aborts immediately.
	drain := scamv.ArmShutdown(
		func() {
			fmt.Fprintln(os.Stderr, "scamv: interrupt: draining in-flight programs (interrupt again to abort)")
		},
		func() {
			fmt.Fprintln(os.Stderr, "scamv: aborted")
			os.Exit(130)
		},
	)
	stopping := func() bool {
		select {
		case <-drain:
			return true
		default:
			return false
		}
	}
	interrupted := false

	// Resilience knobs apply uniformly; a chaos profile wraps each
	// experiment's platform in a fresh fault injector seeded from -seed, so
	// the fault schedule reproduces with the rest of the campaign.
	applyResilience := func(e *scamv.Experiment) {
		e.ExecTimeout = *execTO
		e.Retries = *retries
		e.FailPolicy = failPolicy
		e.Platforms = platforms
		e.Drain = drain
		if chaosProf.Name != "off" {
			e.Platform = faultinject.New(e.Platform, chaosProf, *seed)
		}
	}

	// runArmed runs one campaign with its journal armed (when -checkpoint or
	// -resume is set): each campaign gets its own subdirectory keyed by the
	// experiment name, opened fresh or resumed, and closed after the run.
	runArmed := func(e scamv.Experiment) (*scamv.Result, error) {
		if *ckptDir != "" {
			j, err := journal.Open(*ckptDir, e.Name, journal.Options{Resume: resuming})
			if err != nil {
				return nil, err
			}
			defer func() {
				if cerr := j.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "scamv:", cerr)
				}
			}()
			e.Journal = j
		}
		r, err := scamv.Run(e)
		if err == nil && r.Drained {
			interrupted = true
		}
		return r, err
	}

	runPair := func(title string, unguided, refined scamv.Experiment) {
		if stopping() {
			interrupted = true
			return
		}
		unguided.Log, refined.Log = db, db
		unguided.Parallel, refined.Parallel = *parallel, *parallel
		unguided.Trace, refined.Trace = tr, tr
		applyResilience(&unguided)
		applyResilience(&refined)
		fmt.Printf("== %s ==\n", title)
		ru, err := runArmed(unguided)
		if err != nil {
			fatal(err)
		}
		if stopping() {
			interrupted = true
			fmt.Println(scamv.FormatTable(ru))
			return
		}
		rr, err := runArmed(refined)
		if err != nil {
			fatal(err)
		}
		fmt.Println(scamv.FormatTable(ru, rr))
	}
	runOne := func(title string, e scamv.Experiment) {
		if stopping() {
			interrupted = true
			return
		}
		e.Log = db
		e.Parallel = *parallel
		e.Trace = tr
		applyResilience(&e)
		fmt.Printf("== %s ==\n", title)
		r, err := runArmed(e)
		if err != nil {
			fatal(err)
		}
		fmt.Println(scamv.FormatTable(r))
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if want("mpart") {
		ran = true
		u, r := scamv.MPartExperiments(false, n(scamv.PaperMPartPrograms), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Table 1: Mpart (AR = sets 61..127)", u, r)
	}
	if want("mpart-pa") {
		ran = true
		u, r := scamv.MPartExperiments(true, n(scamv.PaperMPartPAPrograms), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Table 1: Mpart page aligned (AR = sets 64..127)", u, r)
	}
	if want("mct-a") {
		ran = true
		u, r := scamv.MCtExperiments(gen.TemplateA{}, n(scamv.PaperMCtAPrograms), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Table 1: Mct Template A", u, r)
	}
	if want("mct-b") {
		ran = true
		u, r := scamv.MCtExperiments(gen.TemplateB{}, n(scamv.PaperMCtBPrograms), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Table 1: Mct Template B", u, r)
	}
	if want("fig7-c") {
		ran = true
		u, r := scamv.MCtExperiments(gen.TemplateC{}, n(scamv.PaperFig7CPrograms), tn(scamv.PaperFig7CTests), *seed)
		runPair("Fig. 7: Mct Template C", u, r)
		runOne("Fig. 7: Mspec1 Template C",
			scamv.MSpec1Experiment(gen.TemplateC{}, n(scamv.PaperFig7CPrograms), tn(scamv.PaperFig7CTests), *seed))
	}
	if want("mspec1-b") {
		ran = true
		runOne("Fig. 7: Mspec1 Template B",
			scamv.MSpec1Experiment(gen.TemplateB{}, n(scamv.PaperMSpec1BPrograms), tn(scamv.DefaultTestsPerProgram), *seed))
	}
	if want("mtime") {
		ran = true
		u, r := scamv.MTimeExperiments(n(100), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Extension: variable-time multiplier channel (Mct vs Mtime)", u, r)
	}
	if want("pcmodel") {
		ran = true
		u, r := scamv.MPCModelExperiments(n(100), tn(scamv.DefaultTestsPerProgram), *seed)
		runPair("Extension: program-counter security model vs the data cache", u, r)
	}
	if want("straight") {
		ran = true
		runOne("Fig. 7: Mct Template D with Mspec' (straight-line)",
			scamv.StraightLineExperiment(n(scamv.PaperStraightPrograms), tn(scamv.PaperStraightTests), *seed))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if interrupted {
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "scamv: interrupted; campaign state journaled, resumable with -resume %s\n", *ckptDir)
		} else {
			fmt.Fprintln(os.Stderr, "scamv: interrupted; partial results above (run with -checkpoint DIR to make interrupts resumable)")
		}
		return 3
	}
	return 0
}

// analyse dispatches -report on the file's content: telemetry traces (every
// record carries a "kind") get the latency report, experiment logs get the
// campaign aggregates and checklist ratios. A torn trailing line (the writer
// was killed mid-append) is dropped with a warning, or is fatal under
// -strict.
func analyse(path string, strict bool) error {
	trace, err := isTraceFile(path)
	if err != nil {
		return err
	}
	if trace {
		recs, torn, err := logdb.Load(path, telemetry.CheckRecord)
		if err != nil {
			return err
		}
		if err := warnTorn(path, torn, strict); err != nil {
			return err
		}
		fmt.Print(analysis.AnalyzeTrace(recs))
		return nil
	}
	return analyseLog(path, strict)
}

// warnTorn reports a torn trailing line (logdb.Load's torn): a stderr
// warning normally, an error under -strict.
func warnTorn(path string, torn error, strict bool) error {
	if torn == nil {
		return nil
	}
	if strict {
		return fmt.Errorf("%s: 1 torn trailing line(s) (rerun without -strict to drop them)", path)
	}
	fmt.Fprintf(os.Stderr, "scamv: warning: %s: 1 torn trailing line(s) dropped\n", path)
	return nil
}

// reportDiff loads two traces and prints their alignment: per-stage latency
// deltas, per-program solver-effort regressions, and verdict drift.
func reportDiff(oldPath, newPath string, strict bool) error {
	load := func(path string) ([]telemetry.Record, error) {
		if ok, err := isTraceFile(path); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("%s: not a telemetry trace (-report-diff compares traces, not logs)", path)
		}
		recs, torn, err := logdb.Load(path, telemetry.CheckRecord)
		if err != nil {
			return nil, err
		}
		if err := warnTorn(path, torn, strict); err != nil {
			return nil, err
		}
		return recs, nil
	}
	oldRecs, err := load(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s\nnew: %s\n", oldPath, newPath)
	fmt.Print(analysis.DiffTraces(oldRecs, newRecs))
	return nil
}

// isTraceFile sniffs the first record: telemetry records always carry a
// "kind" field, logdb records never do. A file that is only a torn line
// reads as a log, whose loader reports the tear.
func isTraceFile(path string) (bool, error) {
	probes, _, err := logdb.Load[struct {
		Kind string `json:"kind"`
	}](path, nil)
	if err != nil {
		return false, err
	}
	return len(probes) > 0 && probes[0].Kind != "", nil
}

// analyseLog prints campaign aggregates and, for every unguided/refined pair
// of the same campaign family, the paper's §A.6.1 checklist ratios.
func analyseLog(path string, strict bool) error {
	recs, torn, err := logdb.Load[logdb.Record](path, nil)
	if err != nil {
		return err
	}
	if err := warnTorn(path, torn, strict); err != nil {
		return err
	}
	campaigns := analysis.Aggregate(recs)
	fmt.Print(analysis.FormatCampaigns(campaigns))
	fmt.Println()
	for _, name := range analysis.Names(campaigns) {
		patterns := analysis.DiffPatterns(recs, name)
		if len(patterns) == 0 {
			continue
		}
		fmt.Printf("counterexample patterns of %s:\n%s\n", name, analysis.FormatPatterns(patterns))
	}
	for _, name := range analysis.Names(campaigns) {
		if !strings.HasSuffix(name, "/unguided") {
			continue
		}
		refined := campaigns[strings.TrimSuffix(name, "/unguided")+"/refined"]
		if refined == nil {
			continue
		}
		fmt.Print(analysis.Compare(campaigns[name], refined))
		fmt.Println()
	}
	return nil
}

// usageError reports an invalid flag value the way flag.Parse reports an
// unknown flag: the message and the usage text on stderr, exit status 2.
func usageError(format string, args ...any) int {
	fmt.Fprintf(flag.CommandLine.Output(), "scamv: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scamv:", err)
	os.Exit(1)
}
