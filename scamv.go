// Package scamv is a Go reimplementation of the Scam-V side-channel model
// validation framework with observation refinement (Buiras, Nemati, Lindner,
// Guanciale: "Validation of Side-Channel Models via Observation Refinement",
// MICRO 2021).
//
// The pipeline mirrors Fig. 1 of the paper: generate a binary program,
// synthesize the observational-equivalence relation of the model under
// validation, instantiate it as a pair of input states — guided by a refined
// model and by coverage support models — and execute the pair on the
// hardware, measuring the side channel to decide distinguishability. The
// "hardware" here is the Cortex-A53-like simulator of internal/micro; see
// DESIGN.md for every substitution made relative to the paper's Raspberry
// Pi 3 platform.
//
// The central entry point is Run, which executes a whole Experiment
// (many programs × many test cases) and returns the statistics the paper's
// Table 1 and Fig. 7 report. Pipeline gives finer-grained access for single
// programs, used by the runnable examples.
package scamv

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scamv/internal/arm"
	"scamv/internal/bir"
	"scamv/internal/core"
	"scamv/internal/gen"
	"scamv/internal/journal"
	"scamv/internal/lifter"
	"scamv/internal/logdb"
	"scamv/internal/micro"
	"scamv/internal/obs"
	"scamv/internal/smt"
	"scamv/internal/stage"
	"scamv/internal/symexec"
	"scamv/internal/telemetry"
)

// Verdict classifies one executed experiment (paper §6.1: each experiment
// is repeated and discrepancies across repetitions are inconclusive).
type Verdict int

// Experiment verdicts.
const (
	// Indistinguishable: the two states produced identical observable
	// cache states in every repetition.
	Indistinguishable Verdict = iota
	// Counterexample: the states are distinguishable on the hardware even
	// though the model under validation equates them — the model is unsound.
	Counterexample
	// Inconclusive: the repetitions disagreed (measurement noise).
	Inconclusive
)

func (v Verdict) String() string {
	switch v {
	case Indistinguishable:
		return "indistinguishable"
	case Counterexample:
		return "counterexample"
	case Inconclusive:
		return "inconclusive"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Experiment configures one full validation campaign: a program template, a
// model pair, coverage support, and execution parameters.
type Experiment struct {
	// Name identifies the experiment in reports and logs.
	Name string
	// Template generates the test programs.
	Template gen.Template
	// Model is the (model under validation, refined model) pair.
	Model obs.ModelPair
	// Refined enables refinement guidance (s1 ≁M2 s2). When false the
	// campaign is the unguided baseline even if Model carries refined
	// observations.
	Refined bool
	// Support is the coverage support model (nil = M_pc only).
	Support obs.Support

	// Programs is the number of programs to generate; TestsPerProgram the
	// number of test cases attempted per program.
	Programs        int
	TestsPerProgram int

	// Seed makes the whole campaign deterministic.
	Seed int64
	// RandomPhaseProb diversifies solver models; see internal/smt.
	RandomPhaseProb float64
	// MaxConflicts bounds each solver query (0 = unbounded).
	MaxConflicts int64

	// Micro is the simulated core; zero value means micro.DefaultConfig.
	Micro micro.Config
	// AttackerView filters which cache sets the attacker observes
	// (nil = the full cache).
	AttackerView micro.View
	// TimingAttacker extends the attacker's power with the cycle counter:
	// two runs are distinguishable when their observable cache states OR
	// their total execution times differ. Used by the variable-time
	// arithmetic channel experiments (§3's illustration).
	TimingAttacker bool
	// Speculative enables branch-predictor mistraining before measured
	// runs (§5.3), required for the M_ct/M_spec experiments.
	Speculative bool
	// TrainRuns is the number of predictor-training executions (default 4).
	TrainRuns int
	// Repeats is the number of repetitions per experiment (default 10).
	Repeats int

	// Log, when non-nil, receives one record per executed experiment.
	Log *logdb.DB

	// Trace, when non-nil, is the campaign telemetry spine: it receives a
	// span per program per pipeline stage (proggen, encode, lift, symexec,
	// testgen, execute), a query event per solver query with its effort
	// deltas, and a verdict event per executed test case — feeding the
	// -trace JSONL writer, the live -progress line, and the -debug-addr
	// endpoint. A nil Trace costs one pointer check per instrumentation
	// site. Both engines (staged and monolithic) emit the same spans, so
	// trace-derived aggregates are engine-independent.
	Trace *telemetry.Tracer

	// Platform executes experiments; nil means the simulator (SimPlatform)
	// configured by Micro — by default the Cortex-A53-like core. A deployment
	// against real hardware plugs in here — possibly wrapped in a
	// MultiPlatform pool or a faultinject chaos platform.
	Platform Platform

	// Platforms, when non-empty, turns the campaign into a platform-matrix
	// campaign: the test suite is generated once and every test case is
	// executed on each listed platform back to back (batched execution),
	// producing one PlatformResult row per platform in Result.Matrix.
	// Platform 0 is the primary row — its verdicts feed the top-level Result
	// counts exactly as a single-platform campaign's would. See matrix.go.
	Platforms []PlatformSpec

	// matrixExps holds the per-platform experiment clones of a matrix
	// campaign (the campaign experiment with Micro swapped), built by
	// RunContext via buildMatrix.
	matrixExps []*Experiment

	// FailPolicy selects what happens when a platform call keeps failing:
	// FailFast (zero value) aborts the campaign as before, Degrade records
	// the test as skipped and continues. See resilience.go.
	FailPolicy FailPolicy
	// ExecTimeout bounds every platform Execute call (0 = no deadline).
	// An expired deadline classifies as transient and consumes a retry.
	ExecTimeout time.Duration
	// Retries is the per-call retry budget for transient platform errors
	// (0 = a single attempt, today's semantics).
	Retries int
	// RetryBackoff is the base delay before the first retry, doubling per
	// retry with seeded jitter (0 = the resilient default of 1ms).
	RetryBackoff time.Duration
	// QuarantineAfter is the number of consecutive failed test cases after
	// which a program is quarantined under Degrade (default 3).
	QuarantineAfter int

	// Journal, when non-nil, is the campaign's crash-safety spine: every
	// completed program is appended to a durable write-ahead journal as the
	// in-order merge step commits it, with periodic atomic checkpoints, and
	// a journal opened with Resume makes RunContext skip the restored
	// prefix and reproduce the remainder deterministically — the Result is
	// byte-identical (modulo wall-clock fields) to an uninterrupted run.
	// The caller owns the journal's lifecycle (Open before Run, Close
	// after); RunContext calls Begin, Append, and the final Checkpoint.
	// See internal/journal and DESIGN.md §15.
	Journal *journal.Campaign

	// Drain, when non-nil, is the graceful-shutdown seam: closing the
	// channel stops the engines from starting new programs while everything
	// in flight completes and merges (and journals, when armed). The
	// campaign then returns a partial Result with Drained set — resumable,
	// not failed. Distinct from context cancellation, which aborts in-flight
	// work. ArmShutdown wires SIGINT/SIGTERM to a drain channel.
	Drain <-chan struct{}

	// restoredN is the length of the journal-restored prefix: the engines
	// process programs [restoredN, Programs) and fast-forward every
	// sequential seed stream across the skipped prefix. Set by RunContext.
	restoredN int

	// restoredShapeHits/Misses are the shape-cache lookup totals replayed
	// from the restored programs' journaled key lists; added to the live
	// cache's stats at harvest so resumed totals equal an uninterrupted
	// run's.
	restoredShapeHits   int64
	restoredShapeMisses int64

	// Parallel is the number of programs processed concurrently (<= 1
	// means sequential). Counts are deterministic regardless of the
	// setting; only wall-clock TTC varies with scheduling.
	Parallel int

	// LegacySolver disables the shared-prefix incremental solver and builds
	// one fresh SMT solver per generator stream, as before the incremental
	// rework. Kept for A/B benchmarking (see core.Config.Legacy); campaigns
	// should leave it false.
	LegacySolver bool

	// Portfolio, when >= 1, races that many diversified CDCL workers per
	// solver query, first answer wins. Worker 0 is canonical, so campaign
	// results are byte-identical across portfolio sizes; only wall-clock
	// generation time changes. 0 keeps the classic single-solver backend.
	Portfolio int

	// SharedCache enables the campaign-scoped blast/query cache: pair-
	// relation encodings are computed once per template shape and cloned for
	// every alpha-equivalent program (same template, different register
	// allocation), across all concurrent testgen workers. Results are
	// byte-identical with the cache on or off. Ignored under LegacySolver.
	SharedCache bool

	// shapeCache is the campaign's shared prototype cache, created by
	// RunContext when SharedCache is set.
	shapeCache *smt.ShapeCache

	// Monolithic disables the staged engine and runs the pre-staged
	// program-level worker pool (no stage overlap, no Result.Stages
	// metrics). Counts are identical either way; kept for A/B benchmarking
	// (make bench-campaign). Campaigns should leave it false.
	Monolithic bool
}

func (e *Experiment) platform() Platform {
	if e.Platform != nil {
		return e.Platform
	}
	return SimPlatform{}
}

// WithDefaults returns a copy of the experiment with unset execution
// parameters filled in (repeat counts, microarchitecture, attacker view).
// Run applies it automatically; callers driving Pipeline.ExecuteTestCase
// directly should apply it themselves.
func (e *Experiment) WithDefaults() Experiment {
	out := *e
	if out.TrainRuns == 0 {
		out.TrainRuns = 4
	}
	if out.Repeats == 0 {
		out.Repeats = 10
	}
	// Merge the microarchitecture field by field so a partially-set config
	// keeps its explicit fields (VarTimeMul, SpecWindow, PrefetchDisabled,
	// cycle costs, ...) instead of being replaced wholesale. Intentionally
	// zero fields use sentinels; see micro.NoSpeculation.
	out.Micro = out.Micro.WithDefaults()
	if out.AttackerView == nil {
		out.AttackerView = micro.FullView
	}
	if out.TestsPerProgram == 0 {
		out.TestsPerProgram = 40
	}
	if out.Programs == 0 {
		out.Programs = 10
	}
	if out.QuarantineAfter == 0 {
		out.QuarantineAfter = 3
	}
	return out
}

// Result aggregates a campaign's outcome in the shape of the paper's
// Table 1 rows.
type Result struct {
	Name       string
	Model      string
	Refinement string
	Coverage   string

	Programs            int // programs generated
	ProgramsWithCounter int // programs with ≥ 1 counterexample
	Experiments         int // executed test cases
	Counterexamples     int
	Inconclusive        int

	// EncodeFallbacks counts programs whose A64 encode/decode round trip
	// was inconsistent (the decoded program re-encodes to different words)
	// and that therefore ran in their structured form.
	EncodeFallbacks int

	GenTime time.Duration // total test-case generation time
	ExeTime time.Duration // total experiment execution time

	// Queries counts solver queries issued during generation (sat + unsat +
	// given-up); Queries/GenTime is the generation throughput tracked by
	// BENCH_gen.json.
	Queries int

	// TTC is the time to the first counterexample (wall clock from the
	// start of the campaign); Found reports whether one was found at all.
	// Wall clock varies with scheduling under Parallel > 1, so TTC is NOT
	// deterministic per seed — FirstCEProgram/FirstCETest are.
	TTC   time.Duration
	Found bool

	// FirstCEProgram and FirstCETest locate the first counterexample in
	// campaign order: the lowest program index with a counterexample and
	// the first distinguishing test index within it. Unlike the wall-clock
	// TTC, this index is deterministic per seed regardless of Parallel.
	// Both are -1 when Found is false.
	FirstCEProgram int
	FirstCETest    int

	// Stages is the staged engine's metrics spine: one snapshot per
	// pipeline stage (items in/out, busy time, queue-wait and backpressure
	// time), in pipeline order. Empty when Monolithic is set. It tells
	// future optimization work which stage to shard or cache next.
	Stages []stage.Snapshot

	// Resilience accounting (all zero on a healthy platform). SkippedTests
	// counts test cases abandoned under FailPolicy Degrade (including the
	// untried remainder of quarantined programs); QuarantinedPrograms the
	// programs cut off after QuarantineAfter consecutive failures; Skips
	// the per-skip reasons in program order. Retries and Timeouts count
	// resilience-layer events across the campaign; BreakerTrips the circuit
	// breaker trips of a MultiPlatform pool.
	SkippedTests        int
	QuarantinedPrograms int
	Skips               []Skip
	Retries             int
	Timeouts            int
	BreakerTrips        uint64

	// ShapeHits and ShapeMisses count campaign shape-cache lookups when
	// Experiment.SharedCache is set (misses = distinct template shapes
	// encoded; both deterministic per seed). Zero when the cache is off.
	ShapeHits   int64
	ShapeMisses int64

	// RestoredPrograms counts the programs restored from a resumed
	// campaign journal rather than executed in this process; they are
	// included in Programs and every other aggregate. Zero without -resume.
	RestoredPrograms int

	// Drained reports that the campaign stopped early at a graceful
	// shutdown request (Experiment.Drain): the counts cover a prefix of the
	// campaign, and with a journal armed the rest is resumable. A drained
	// campaign returns a Result and a nil error — partial data is data.
	Drained bool

	// Checkpoints counts the atomic checkpoint snapshots written by the
	// campaign journal (periodic plus the final one). Zero without
	// -checkpoint.
	Checkpoints int

	// Matrix holds one soundness row per platform of a matrix campaign
	// (Experiment.Platforms), in platform order; empty for single-platform
	// campaigns. Row 0 mirrors the top-level counts. See matrix.go.
	Matrix []PlatformResult

	// DebugAddr is the actually-bound address of the tracer's debug
	// endpoint ("" when none serves). With -debug-addr=:0 the kernel picks
	// the port; this is where scripts find it.
	DebugAddr string
}

// AvgGen returns the mean generation time per experiment.
func (r *Result) AvgGen() time.Duration {
	if r.Experiments == 0 {
		return 0
	}
	return r.GenTime / time.Duration(r.Experiments)
}

// AvgExe returns the mean execution time per experiment.
func (r *Result) AvgExe() time.Duration {
	if r.Experiments == 0 {
		return 0
	}
	return r.ExeTime / time.Duration(r.Experiments)
}

// Pipeline is the per-program portion of the Scam-V flow: lift, instrument,
// symbolically execute, and generate/execute test cases for one program.
type Pipeline struct {
	Prog         *arm.Program
	Model        obs.ModelPair
	Instrumented *bir.Program
	Paths        []*symexec.Path
	Registers    []string
}

// NewPipeline lifts and instruments prog under the model pair and runs
// symbolic execution once (the §5.1 optimization: a single run serves both
// M1 and M2 via observation tags).
func NewPipeline(prog *arm.Program, model obs.ModelPair) (*Pipeline, error) {
	return newPipelineTraced(prog, model, nil, 0)
}

// newPipelineTraced is NewPipeline with telemetry: the lift span covers
// lifting plus model instrumentation, the symexec span the symbolic run.
func newPipelineTraced(prog *arm.Program, model obs.ModelPair, tr *telemetry.Tracer, p int) (*Pipeline, error) {
	t0 := time.Now()
	bp, err := lifter.Lift(prog)
	if err != nil {
		return nil, fmt.Errorf("scamv: lift %s: %w", prog.Name, err)
	}
	inst, err := model.Instrument(bp)
	if err != nil {
		return nil, fmt.Errorf("scamv: instrument %s: %w", prog.Name, err)
	}
	tr.Span("lift", p, t0)
	t0 = time.Now()
	paths, err := symexec.Run(inst, 0)
	if err != nil {
		return nil, fmt.Errorf("scamv: symexec %s: %w", prog.Name, err)
	}
	tr.Span("symexec", p, t0)
	var regs []string
	for name := range inst.Registers() {
		if isArchReg(name) {
			regs = append(regs, name)
		}
	}
	sort.Strings(regs)
	return &Pipeline{
		Prog:         prog,
		Model:        model,
		Instrumented: inst,
		Paths:        paths,
		Registers:    regs,
	}, nil
}

func isArchReg(name string) bool {
	if len(name) < 2 || name[0] != 'x' {
		return false
	}
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Generator builds the refinement-guided test-case generator for this
// program.
func (pl *Pipeline) Generator(e *Experiment, programSeed int64) *core.Generator {
	return pl.generatorCtx(context.Background(), e, programSeed, 0)
}

// generatorCtx is Generator with the campaign context (cancellation reaches
// down into the SAT search) and the program index for query-event tagging.
func (pl *Pipeline) generatorCtx(ctx context.Context, e *Experiment, programSeed int64, p int) *core.Generator {
	return core.NewGenerator(pl.Paths, core.Config{
		Seed:            programSeed,
		RandomPhaseProb: e.RandomPhaseProb,
		Refined:         e.Refined && pl.Model.Refined(),
		Support:         e.Support,
		MaxConflicts:    e.MaxConflicts,
		Registers:       pl.Registers,
		Legacy:          e.LegacySolver,
		Portfolio:       e.Portfolio,
		ShapeCache:      e.shapeCache,
		Trace:           e.Trace,
		Prog:            p,
		Ctx:             ctx,
	})
}

// TrainingState returns (and caches per path) the predictor-training state
// for a test case whose states take the given path.
func (pl *Pipeline) TrainingState(path int, seed int64) (*core.State, bool) {
	return core.TrainingState(pl.Paths, path, pl.Registers, seed)
}

// Measurement is what the attacker observes from one victim execution: the
// final cache state through the attacker view, and (for timing attackers)
// the cycle count.
type Measurement struct {
	Snapshot *micro.Snapshot
	Cycles   uint64
}

// Distinguishable reports whether two measurements differ for an attacker,
// optionally including the timing channel.
func (m Measurement) Distinguishable(o Measurement, timing bool) bool {
	return !m.Snapshot.Equal(o.Snapshot) || timing && m.Cycles != o.Cycles
}

// Platform abstracts the experiment execution platform of the paper's
// Fig. 8: the component that installs an architectural state, optionally
// trains the branch predictor, runs the victim, and reports the side-channel
// measurement. The default is the simulated Cortex-A53 (SimPlatform);
// a deployment with real boards would implement this interface against its
// debug bridge, as the original Scam-V does with EmbExp.
//
// Execute must honor ctx: the resilience layer derives a per-call deadline
// from Experiment.ExecTimeout, and campaign cancellation flows through the
// same context. A platform that can hang (a wedged board, a stuck bridge)
// must select on ctx.Done so the campaign can cut it loose. Errors may be
// classified with resilient.MarkTransient / resilient.MarkPermanent;
// unclassified errors are treated as transient (retryable).
type Platform interface {
	Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error)
}

// SimPlatform runs experiments on the internal/micro simulator.
type SimPlatform struct{}

// machinePools keeps one pool of simulated machines per core configuration.
// Execution is the innermost loop of a campaign (Repeats × 2 runs per test
// case, per platform), and building a machine allocates its whole cache;
// a pooled machine is Reset to exactly the state micro.New builds instead.
var (
	machinePoolsMu sync.Mutex
	machinePools   = map[micro.Config]*sync.Pool{}
)

// machinePool returns the machine pool for cfg, creating it on first use.
func machinePool(cfg micro.Config) *sync.Pool {
	machinePoolsMu.Lock()
	defer machinePoolsMu.Unlock()
	p := machinePools[cfg]
	if p == nil {
		p = &sync.Pool{New: func() any { return micro.New(cfg) }}
		machinePools[cfg] = p
	}
	return p
}

// Execute implements Platform. The simulator never blocks, so ctx is only
// honored between runs.
func (SimPlatform) Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	pool := machinePool(e.Micro)
	m := pool.Get().(*micro.Machine)
	defer pool.Put(m)
	m.Reset()
	if e.Speculative && train != nil {
		for i := 0; i < e.TrainRuns; i++ {
			if err := m.LoadState(train.Regs, train.Mem); err != nil {
				return Measurement{}, err
			}
			if err := m.Run(prog, 0, nil); err != nil {
				return Measurement{}, err
			}
		}
	}
	if err := m.LoadState(st.Regs, st.Mem); err != nil {
		return Measurement{}, err
	}
	m.ResetMicro() // the platform module clears the cache before the run
	if err := m.Run(prog, 0, noise); err != nil {
		return Measurement{}, err
	}
	return Measurement{Snapshot: m.Cache.Snapshot(e.AttackerView), Cycles: m.Cycles}, nil
}

// ExecuteTestCase runs a test case Repeats times and classifies it. Errors
// are wrapped with the repeat number and which of the two states (S1/S2) was
// running; inside a campaign the engines add the program and test indexes.
// The retry/timeout policy of the experiment applies (see resilience.go).
func (pl *Pipeline) ExecuteTestCase(e *Experiment, tc *core.TestCase, train *core.State, noiseSeed int64) (Verdict, error) {
	v, _, err := pl.executeTestCase(context.Background(), e, -1, -1, tc, train, noiseSeed)
	return v, err
}

// programResult is one program's contribution to the campaign Result,
// produced by the Execute stage (or by runProgram on the monolithic path)
// and merged in program order by Collect.
type programResult struct {
	experiments     int
	counterexamples int
	inconclusive    int
	encodeFallbacks int
	queries         int
	genTime         time.Duration
	exeTime         time.Duration
	found           bool
	firstCETest     int // test index of the first counterexample, -1 if none
	ttcWall         time.Duration
	records         []logdb.Record

	// Resilience accounting under FailPolicy Degrade (see resilience.go).
	skippedTests int
	quarantined  bool
	skips        []Skip
	retries      int
	timeouts     int

	// platforms is the per-platform tally of a matrix campaign, one entry
	// per Experiment.Platforms spec; nil otherwise. See matrix.go.
	platforms []platformTally

	// shapeKeys are the program's shape-cache lookups (key hashes in lookup
	// order), journaled for resume accounting. See core.Generator.ShapeKeys.
	shapeKeys []uint64
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer with
// full avalanche, used to derive statistically independent seed streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noiseSeed derives the measurement-noise seed for test t of program p.
// Each mixing round is a bijection, so two pairs agreeing in p get distinct
// seeds for distinct t and vice versa; cross-pair collisions are a 2^-64
// event. (The previous additive scheme seed^0x5eed + p*100000 + t*100
// collided exactly: (p, t+1000) and (p+1, t) shared a seed once
// TestsPerProgram reached 1000, silently correlating the noise of unrelated
// experiments.)
func noiseSeed(seed int64, p, t int) int64 {
	h := splitmix64(uint64(seed) ^ 0x5eed)
	h = splitmix64(h ^ uint64(p))
	h = splitmix64(h ^ uint64(t))
	return int64(h)
}

// encodeRoundTrip round-trips a generated program through the A64 encoder.
// The pipeline's nominal input is binary code (the original framework
// transpiles binaries), so every campaign exercises real machine code.
// Programs outside the encodable subset (e.g. user templates with wide
// immediates) fall back to their structured form, as does — reported via
// the fallback flag and counted in Result.EncodeFallbacks — a program whose
// decoding is inconsistent: substituting a decoded program that re-encodes
// differently would silently validate different code than was generated.
func encodeRoundTrip(prog *arm.Program) (_ *arm.Program, fallback bool) {
	if words, err := arm.Encode(prog); err == nil {
		if decoded, err := arm.Decode(prog.Name, words); err == nil {
			if rewords, err := arm.Encode(decoded); err == nil && wordsEqual(words, rewords) {
				return decoded, false
			}
			return prog, true
		}
	}
	return prog, false
}

// genOut is the TestGen stage's product for one program: the generated test
// cases with their per-test generation times and the solver query count.
type genOut struct {
	tests     []*core.TestCase
	durs      []time.Duration
	genTime   time.Duration
	queries   int
	shapeKeys []uint64
}

// generateTests is the TestGen stage body: it drives the refinement-guided
// generator for program p until TestsPerProgram cases exist or the relation
// is exhausted. Generation never depends on execution results, which is
// what lets the staged engine overlap it with the Execute stage.
func generateTests(ctx context.Context, e *Experiment, pl *Pipeline, p int) genOut {
	var out genOut
	spanStart := time.Now()
	g := pl.generatorCtx(ctx, e, e.Seed+int64(p)+1, p)
	for t := 0; t < e.TestsPerProgram; t++ {
		genStart := time.Now()
		tc, ok := g.Next()
		d := time.Since(genStart)
		out.genTime += d
		if !ok {
			break
		}
		out.tests = append(out.tests, tc)
		out.durs = append(out.durs, d)
	}
	out.queries = g.QueriesSat + g.QueriesUnsat + g.QueriesFailed
	out.shapeKeys = g.ShapeKeys
	e.Trace.Span("testgen", p, spanStart)
	return out
}

// executeProgram is the Execute stage body: it runs every generated test
// case of program p on the platform and classifies the verdicts. Under
// FailPolicy Degrade a test whose retry budget is exhausted becomes a skip
// record instead of a campaign abort, and QuarantineAfter consecutive
// failures quarantine the program (its remaining tests count as skipped).
//
// In a matrix campaign (Experiment.Platforms) each test case is a batch: the
// K platform runs execute back to back before the next test, on the primary
// platform first (platform 0, whose verdicts feed the single-platform
// bookkeeping below) and then on every other platform, tallied per row.
// Batching lives here in the shared stage body, so the staged and monolithic
// engines batch identically.
func executeProgram(ctx context.Context, e *Experiment, pl *Pipeline, p int, g genOut, start time.Time) (*programResult, error) {
	out := &programResult{genTime: g.genTime, queries: g.queries, firstCETest: -1, shapeKeys: g.shapeKeys}
	matrix := e.matrixExps
	if len(matrix) > 0 {
		out.platforms = make([]platformTally, len(matrix))
		for k := range out.platforms {
			out.platforms[k].firstCETest = -1
		}
	}
	primary := e
	if len(matrix) > 0 {
		primary = matrix[0]
	}
	platformName := func(k int) string { return e.Platforms[k].Name }
	spanStart := time.Now()
	trainCache := map[int]*core.State{}
	consecutive := 0
	for t, tc := range g.tests {
		var train *core.State
		if e.Speculative {
			if cached, ok := trainCache[tc.PathA]; ok {
				train = cached
			} else if st, ok := pl.TrainingState(tc.PathA, e.Seed+int64(p)); ok {
				train = st
				trainCache[tc.PathA] = st
			}
		}
		exeStart := time.Now()
		verdict, stats, err := pl.executeTestCase(ctx, primary, p, t, tc, train, noiseSeed(e.Seed, p, t))
		exeDur := time.Since(exeStart)
		out.exeTime += exeDur
		out.retries += stats.retries
		out.timeouts += stats.timeouts
		if err != nil {
			if e.FailPolicy != Degrade || ctx.Err() != nil {
				return nil, err
			}
			out.skippedTests++
			out.skips = append(out.skips, Skip{Prog: p, Test: t, Reason: err.Error()})
			e.Trace.Skip(p, t, err.Error())
			// A primary failure skips the whole batch: the matrix rows stay
			// aligned on the same executed test set.
			for k := range out.platforms {
				out.platforms[k].skipped++
			}
			consecutive++
			if consecutive >= e.QuarantineAfter {
				remaining := len(g.tests) - t - 1
				out.skippedTests += remaining
				for k := range out.platforms {
					out.platforms[k].skipped += remaining
				}
				out.quarantined = true
				reason := fmt.Sprintf("quarantined after %d consecutive failures (last: %v)", consecutive, err)
				out.skips = append(out.skips, Skip{Prog: p, Test: -1, Reason: reason})
				e.Trace.Quarantine(p, reason)
				break
			}
			continue
		}
		consecutive = 0
		e.Trace.Verdict(p, t, verdict.String(), exeDur)
		out.experiments++
		switch verdict {
		case Counterexample:
			out.counterexamples++
			if !out.found {
				out.found = true
				out.firstCETest = t
				out.ttcWall = time.Since(start)
			}
		case Inconclusive:
			out.inconclusive++
		}
		// Log records are built when either consumer exists: the experiment
		// log appends them now, and the journal carries them durably so a
		// resumed campaign can replay them into a log opened only later.
		logRecord := func(platform string, v Verdict, d time.Duration) {
			if e.Log == nil && e.Journal == nil {
				return
			}
			out.records = append(out.records, logdb.Record{
				Experiment: e.Name,
				Program:    pl.Prog.Name,
				TestIndex:  t,
				PathA:      tc.PathA,
				PathB:      tc.PathB,
				Class:      tc.Class,
				Verdict:    v.String(),
				Platform:   platform,
				GenMicros:  g.durs[t].Microseconds(),
				ExeMicros:  d.Microseconds(),
				Diff:       tc.Diff(),
			})
		}
		if len(matrix) == 0 {
			logRecord("", verdict, exeDur)
			continue
		}
		// Matrix batch: tally the primary run as row 0, then run the
		// remaining platforms on the same test case with the same training
		// state and noise seed (both platform-independent by construction,
		// which is what keeps a matrix row comparable to the equivalent
		// single-platform campaign).
		out.platforms[0].count(verdict, exeDur, t)
		e.Trace.PlatformVerdict(p, t, platformName(0), verdict.String(), exeDur)
		logRecord(platformName(0), verdict, exeDur)
		for k := 1; k < len(matrix); k++ {
			kStart := time.Now()
			kv, kStats, kerr := pl.executeTestCase(ctx, matrix[k], p, t, tc, train, noiseSeed(e.Seed, p, t))
			kDur := time.Since(kStart)
			out.exeTime += kDur
			out.retries += kStats.retries
			out.timeouts += kStats.timeouts
			if kerr != nil {
				if e.FailPolicy != Degrade || ctx.Err() != nil {
					return nil, fmt.Errorf("platform %s: %w", platformName(k), kerr)
				}
				// A secondary-platform failure skips only that row's run; the
				// primary bookkeeping (and quarantine) is untouched.
				out.platforms[k].skipped++
				continue
			}
			out.platforms[k].count(kv, kDur, t)
			e.Trace.PlatformVerdict(p, t, platformName(k), kv.String(), kDur)
			logRecord(platformName(k), kv, kDur)
		}
	}
	e.Trace.Span("execute", p, spanStart)
	e.Trace.ProgramDone()
	return out, nil
}

// runProgram pushes one generated program through the whole pipeline
// in-line: encode round trip, lift+symexec, test generation, execution.
// It is the unit of parallelism of the monolithic engine, and it composes
// exactly the same stage bodies the staged engine wires through channels —
// which is what keeps the two engines seed-for-seed identical.
func runProgram(ctx context.Context, e *Experiment, prog *arm.Program, p int, start time.Time) (*programResult, error) {
	t0 := time.Now()
	prog, fallback := encodeRoundTrip(prog)
	e.Trace.Span("encode", p, t0)
	pl, err := newPipelineTraced(prog, e.Model, e.Trace, p)
	if err != nil {
		return nil, err
	}
	out, err := executeProgram(ctx, e, pl, p, generateTests(ctx, e, pl, p), start)
	if err != nil {
		return nil, err
	}
	if fallback {
		out.encodeFallbacks++
	}
	return out, nil
}

// mergeProgram folds one program's result into the campaign Result. Callers
// must invoke it in ascending program order: that ordering is what makes
// counts, the log record sequence, and the first-counterexample index
// deterministic regardless of worker scheduling.
func (res *Result) mergeProgram(e *Experiment, p int, out *programResult) error {
	res.Programs++
	res.Experiments += out.experiments
	res.Counterexamples += out.counterexamples
	res.Inconclusive += out.inconclusive
	res.EncodeFallbacks += out.encodeFallbacks
	res.Queries += out.queries
	res.GenTime += out.genTime
	res.ExeTime += out.exeTime
	res.SkippedTests += out.skippedTests
	if out.quarantined {
		res.QuarantinedPrograms++
	}
	res.Skips = append(res.Skips, out.skips...)
	res.Retries += out.retries
	res.Timeouts += out.timeouts
	if out.found {
		res.ProgramsWithCounter++
		if !res.Found {
			// First in program order: the deterministic index.
			res.FirstCEProgram, res.FirstCETest = p, out.firstCETest
		}
		if !res.Found || out.ttcWall < res.TTC {
			res.Found = true
			res.TTC = out.ttcWall
		}
	}
	for k := range out.platforms {
		pt, row := &out.platforms[k], &res.Matrix[k]
		row.Experiments += pt.experiments
		row.Counterexamples += pt.counterexamples
		row.Inconclusive += pt.inconclusive
		row.SkippedTests += pt.skipped
		row.ExeTime += pt.exeTime
		if pt.found && !row.Found {
			// Programs merge in ascending order, so this is the first
			// counterexample in campaign order — deterministic per seed.
			row.Found = true
			row.FirstCEProgram, row.FirstCETest = p, pt.firstCETest
		}
	}
	if e.Log != nil {
		for _, rec := range out.records {
			if err := e.Log.Append(rec); err != nil {
				return err
			}
		}
	}
	// Journal the program as it commits: mergeProgram is the in-order merge
	// point of both engines, so appends arrive in strict program order — the
	// contiguity internal/journal enforces. Restored programs (p < restoredN)
	// were journaled before the restart and are only replayed here.
	if e.Journal != nil && p >= e.restoredN {
		ckpt, err := e.Journal.Append(toJournalRecord(p, out))
		if err != nil {
			return err
		}
		if ckpt {
			e.Trace.Checkpoint(p + 1)
		}
	}
	return nil
}

// drainRequested reports whether the graceful-shutdown channel has closed.
// A nil Drain never drains: receiving from a nil channel blocks forever, so
// the default branch always fires.
func (e *Experiment) drainRequested() bool {
	select {
	case <-e.Drain:
		return true
	default:
		return false
	}
}

// Run executes a full experiment campaign on the staged engine (see
// RunContext). Counts are deterministic per seed regardless of Parallel;
// only wall-clock times vary with scheduling.
func Run(cfg Experiment) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a full experiment campaign under a context: cancelling
// ctx tears the pipeline down promptly and returns the context's error.
//
// By default the campaign runs on the staged engine (runStaged): explicit
// pipeline stages connected by bounded channels, each with its own worker
// pool, so test generation for program p+1 overlaps platform execution of
// program p, with per-stage metrics in Result.Stages. Experiment.Monolithic
// selects the pre-staged program-level worker pool instead; both engines
// produce identical counts for a given seed.
func RunContext(ctx context.Context, cfg Experiment) (*Result, error) {
	e := cfg.WithDefaults()
	res := &Result{
		Name:           e.Name,
		Model:          e.Model.Name(),
		Refinement:     refinementName(&e),
		Coverage:       obs.SupportName(e.Support),
		FirstCEProgram: -1,
		FirstCETest:    -1,
	}
	e.Trace.BeginCampaign(e.Name, e.Programs)
	if mp, ok := e.Platform.(*MultiPlatform); ok {
		mp.setTracer(e.Trace)
	}
	if e.SharedCache && !e.LegacySolver {
		e.shapeCache = smt.NewShapeCache()
	}
	if err := buildMatrix(&e); err != nil {
		return nil, err
	}
	for _, spec := range e.Platforms {
		res.Matrix = append(res.Matrix, PlatformResult{
			Platform:       spec.Name,
			FirstCEProgram: -1,
			FirstCETest:    -1,
		})
	}
	if e.Journal != nil {
		if err := e.Journal.Begin(e.Name, journalFingerprint(&e)); err != nil {
			return nil, err
		}
		restored := e.Journal.Restored()
		if len(restored) > e.Programs {
			return nil, fmt.Errorf("scamv: journal restored %d programs but the campaign runs only %d", len(restored), e.Programs)
		}
		// Merge the restored prefix through the same in-order merge step the
		// engines use, replaying shape-cache accounting from the journaled
		// key lists (first occurrence = the miss the uninterrupted run paid;
		// everything later = hit), and teach the live cache the keys so its
		// rebuilt prototypes still count as hits.
		var keys []uint64
		seen := make(map[uint64]bool)
		e.restoredN = len(restored) // before the merges: it gates re-journaling
		for _, jr := range restored {
			out := fromJournalRecord(jr)
			if e.shapeCache != nil {
				for _, kh := range out.shapeKeys {
					if seen[kh] {
						e.restoredShapeHits++
					} else {
						seen[kh] = true
						e.restoredShapeMisses++
					}
					keys = append(keys, kh)
				}
			}
			if err := res.mergeProgram(&e, jr.Prog, out); err != nil {
				return nil, err
			}
		}
		res.RestoredPrograms = e.restoredN
		if e.restoredN > 0 {
			e.Trace.Resume(e.Name, e.restoredN)
			if e.shapeCache != nil {
				e.shapeCache.MarkKnown(keys)
			}
		}
	}
	start := time.Now()
	var err error
	if e.Monolithic {
		err = runMonolithic(ctx, &e, res, start)
	} else {
		err = runStaged(ctx, &e, res, start)
	}
	if err != nil {
		return nil, err
	}
	if e.Drain != nil && e.drainRequested() && res.Programs < e.Programs {
		res.Drained = true
	}
	if e.Journal != nil {
		if err := e.Journal.Checkpoint(); err != nil {
			return nil, err
		}
		res.Checkpoints = e.Journal.Checkpoints()
		e.Trace.Checkpoint(res.Programs)
	}
	// Harvest breaker trips from pooled platforms (MultiPlatform, or any
	// custom platform exposing the same counter).
	if bt, ok := e.Platform.(interface{ BreakerTrips() uint64 }); ok {
		res.BreakerTrips = bt.BreakerTrips()
	}
	if e.shapeCache != nil {
		st := e.shapeCache.Stats()
		res.ShapeHits = st.Hits + e.restoredShapeHits
		res.ShapeMisses = st.Misses + e.restoredShapeMisses
	}
	res.DebugAddr = e.Trace.DebugAddr()
	return res, nil
}

// runMonolithic is the pre-staged engine: a flat program-level worker pool
// with an atomic stop protocol, kept for A/B benchmarking against the
// staged engine (make bench-campaign).
func runMonolithic(ctx context.Context, e *Experiment, res *Result, start time.Time) error {
	progRng := rand.New(rand.NewSource(e.Seed))
	progs := make([]*arm.Program, e.Programs)
	for p := range progs {
		t0 := time.Now()
		// On resume the restored prefix is still generated — the template RNG
		// is one sequential stream, so programs [restoredN, Programs) only
		// come out right if the draws for [0, restoredN) happen first — but
		// its spans are not traced (the work is a fast-forward, not a stage).
		progs[p] = e.Template.Generate(progRng, p)
		if p >= e.restoredN {
			e.Trace.Span("proggen", p, t0)
		}
	}

	outs := make([]*programResult, e.Programs)
	live := e.Programs - e.restoredN
	workers := e.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > live {
		workers = live
	}
	if workers <= 1 {
		for p := e.restoredN; p < len(progs); p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if e.drainRequested() {
				break
			}
			out, err := runProgram(ctx, e, progs[p], p, start)
			if err != nil {
				return err
			}
			outs[p] = out
		}
	} else {
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			runErr error
			stopAt atomic.Int64 // lowest erroring program index so far
		)
		stopAt.Store(int64(len(progs)))
		idxCh := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range idxCh {
					// After an error at index q, skip programs above q (their
					// results would be discarded) but still run lower ones:
					// indexes are handed out in order, so every index below q
					// has been handed out and completes, which makes the
					// reported error the lowest erroring index regardless of
					// worker scheduling.
					if int64(p) > stopAt.Load() || ctx.Err() != nil {
						continue
					}
					out, err := runProgram(ctx, e, progs[p], p, start)
					mu.Lock()
					if err != nil && int64(p) < stopAt.Load() {
						runErr = fmt.Errorf("scamv: program %d: %w", p, err)
						stopAt.Store(int64(p))
					}
					outs[p] = out
					mu.Unlock()
				}
			}()
		}
		// Drain stops the handout, not the workers: every index already sent
		// completes and merges, and since indexes go out in order the merged
		// prefix stays contiguous — exactly what the journal needs to resume.
		for p := e.restoredN; p < len(progs); p++ {
			if int64(p) > stopAt.Load() || ctx.Err() != nil || e.drainRequested() {
				break
			}
			idxCh <- p
		}
		close(idxCh)
		wg.Wait()
		if runErr != nil {
			return runErr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	// Merge in program order: deterministic counts and log.
	for p, out := range outs {
		if out == nil {
			continue
		}
		if err := res.mergeProgram(e, p, out); err != nil {
			return err
		}
	}
	return nil
}

func refinementName(e *Experiment) string {
	if !e.Refined || !e.Model.Refined() {
		return "No"
	}
	switch m := e.Model.(type) {
	case *obs.MPart:
		return "Mpart'"
	case *obs.MTime:
		return "Mtime"
	case *obs.MPCModel:
		return "Mct"
	case *obs.MCt:
		switch m.Spec {
		case obs.SpecStraightLine:
			return "Mspec'"
		default:
			return "Mspec"
		}
	}
	return "M2"
}
