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
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
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
	Log *logdb.Writer

	// Trace, when non-nil, is the campaign telemetry spine: it receives a
	// span per program per step of the flow (proggen, encode, lift, symexec,
	// testgen, execute), a query event per solver query with its effort
	// deltas, and a verdict event per executed test case — feeding the
	// -trace JSONL writer, the live -progress line, and the -debug-addr
	// endpoint. A nil Trace costs one pointer check per instrumentation
	// site.
	Trace *telemetry.Tracer

	// Platform executes experiments; nil means the simulator (SimPlatform)
	// configured by Micro — by default the Cortex-A53-like core. A deployment
	// against real hardware plugs in here, as does a faultinject chaos
	// platform.
	Platform Platform

	// Platforms, when non-empty, turns the campaign into a platform-matrix
	// campaign: the test suite is generated once and every test case is
	// executed on each listed platform back to back (batched execution),
	// producing one PlatformResult row per platform in Result.Matrix.
	// Platform 0 is the primary row — its verdicts feed the top-level Result
	// counts exactly as a single-platform campaign's would. See matrix.go.
	Platforms []PlatformSpec

	// rows holds the experiments executeProgram batches every test case
	// over, row 0 the primary: the campaign experiment itself for a
	// single-platform campaign, the per-platform clones (the campaign
	// experiment with Micro swapped) for a matrix. Built by RunContext via
	// buildRows.
	rows []*Experiment

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
	// QuarantineAfter is the number of consecutive failed test cases after
	// which a program is quarantined under Degrade (default 3).
	QuarantineAfter int

	// Journal, when non-nil, is the campaign's crash-safety spine: every
	// completed program is appended to a durable write-ahead journal as the
	// in-order merge step commits it, and a journal opened with Resume
	// makes RunContext skip the restored prefix and reproduce the
	// remainder deterministically — the Result is byte-identical (modulo
	// wall-clock fields) to an uninterrupted run. The caller owns the
	// journal's lifecycle (Open before Run, Close after); RunContext calls
	// Begin and Append.
	// See internal/journal and DESIGN.md §15.
	Journal *journal.Campaign

	// Drain, when non-nil, is the graceful-shutdown seam: closing the
	// channel stops the campaign from starting new programs while everything
	// in flight completes and merges (and journals, when armed). The
	// campaign then returns a partial Result with Drained set — resumable,
	// not failed. Distinct from context cancellation, which aborts in-flight
	// work. ArmShutdown wires SIGINT/SIGTERM to a drain channel.
	Drain <-chan struct{}

	// restoredN is the length of the journal-restored prefix: runPool
	// processes programs [restoredN, Programs) and fast-forwards every
	// sequential seed stream across the skipped prefix. Set by RunContext.
	restoredN int

	// Parallel is the number of programs processed concurrently (<= 1
	// means sequential). Counts are deterministic regardless of the
	// setting; only wall-clock TTC varies with scheduling.
	Parallel int

	// machines is SimPlatform's machine pool for Micro, resolved once by
	// RunContext (and by buildRows for each platform clone) so Execute
	// need not look it up on every call.
	machines *machinePool
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
	// given-up); Queries/GenTime is the generation throughput.
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

	// Resilience accounting (all zero on a healthy platform). SkippedTests
	// counts test cases abandoned under FailPolicy Degrade (including the
	// untried remainder of quarantined programs); QuarantinedPrograms the
	// programs cut off after QuarantineAfter consecutive failures; Skips
	// the per-skip reasons in program order. Retries and Timeouts count
	// resilience-layer events across the campaign.
	SkippedTests        int
	QuarantinedPrograms int
	Skips               []Skip
	Retries             int
	Timeouts            int

	// RestoredPrograms counts the programs restored from a resumed
	// campaign journal rather than executed in this process; they are
	// included in Programs and every other aggregate. Zero without -resume.
	RestoredPrograms int

	// Drained reports that the campaign stopped early at a graceful
	// shutdown request (Experiment.Drain): the counts cover a prefix of the
	// campaign, and with a journal armed the rest is resumable. A drained
	// campaign returns a Result and a nil error — partial data is data.
	Drained bool

	// Matrix holds one soundness row per platform of a matrix campaign
	// (Experiment.Platforms), in platform order; empty for single-platform
	// campaigns. Row 0 mirrors the top-level counts. See matrix.go.
	Matrix []PlatformResult
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
		Trace:           e.Trace,
		Prog:            p,
		Ctx:             ctx,
	})
}

// TrainingState returns the predictor-training state for a test case whose
// states take the given path: a model of the first other path condition
// that is satisfiable, solved afresh on every call. ok is false when no
// other path is feasible.
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

// machinePools keeps one pool of simulated machines per core configuration,
// shared by every campaign. Execution is the innermost loop of a campaign:
// a test case takes Repeats × 2 calls per platform, each TrainRuns training
// runs and a measured run, so Repeats × 2 × (TrainRuns+1) runs in all.
// Building a machine allocates its whole cache, so a pooled machine is
// Reset to exactly the state micro.New builds instead. It also keeps its
// training memo (micro.Machine.Train) and the states it compiled, so the
// training runs are simulated once per test case, not once per call.
var (
	machinePoolsMu sync.Mutex
	machinePools   = map[micro.Config]*machinePool{}
)

// machinePool is the pool of simulated machines for one core configuration.
type machinePool struct {
	cfg  micro.Config
	pool sync.Pool
}

// machinesFor returns the machine pool for cfg, creating it on first use.
// Campaigns resolve it once per experiment (Experiment.machines).
func machinesFor(cfg micro.Config) *machinePool {
	machinePoolsMu.Lock()
	defer machinePoolsMu.Unlock()
	p := machinePools[cfg]
	if p == nil {
		p = &machinePool{cfg: cfg}
		p.pool.New = func() any { return &simMachine{m: micro.New(cfg)} }
		machinePools[cfg] = p
	}
	return p
}

// simMachine is a pooled machine with the three states it ran most
// recently, compiled: a test case's training state and its two measured
// states. Handing the machine the same compiled training state on every
// call of a test case is what lets its training memo hit. A core.State is
// taken to be immutable once executed.
type simMachine struct {
	m      *micro.Machine
	states [3]compiledState // most recently used first
}

type compiledState struct {
	src *core.State
	c   *micro.State
}

// compile returns the compiled form of s, compiling it on a miss.
func (sm *simMachine) compile(s *core.State) (*micro.State, error) {
	i := 0
	for i < len(sm.states)-1 && sm.states[i].src != s {
		i++
	}
	hit := sm.states[i]
	if hit.src != s {
		c, err := micro.CompileState(s.Regs, s.Mem)
		if err != nil {
			return nil, err
		}
		hit = compiledState{s, c}
	}
	copy(sm.states[1:i+1], sm.states[:i])
	sm.states[0] = hit
	return hit.c, nil
}

// Execute implements Platform. The simulator never blocks, so ctx is only
// honored between runs.
func (SimPlatform) Execute(ctx context.Context, e *Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	pool := e.machines
	if pool == nil || pool.cfg != e.Micro {
		pool = machinesFor(e.Micro)
	}
	sm := pool.pool.Get().(*simMachine)
	defer pool.pool.Put(sm)
	m := sm.m
	var trainState *micro.State
	if e.Speculative && train != nil && e.TrainRuns > 0 {
		var err error
		if trainState, err = sm.compile(train); err != nil {
			return Measurement{}, err
		}
	}
	if err := m.Train(prog, trainState, e.TrainRuns); err != nil {
		return Measurement{}, err
	}
	s, err := sm.compile(st)
	if err != nil {
		return Measurement{}, err
	}
	m.Load(s)
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
// produced by executeProgram and merged in program order by runPool. It
// is also what the campaign journal stores for the program, so a resumed
// campaign merges restored programs through the same step.
type programResult struct {
	// Rows holds one row per Experiment.rows entry. Row 0, the primary,
	// carries the program's top-level counts, skips included.
	Rows            []PlatformResult `json:"rows"`
	EncodeFallbacks int              `json:"encode_fallbacks,omitempty"`
	Queries         int              `json:"queries,omitempty"`
	GenTime         time.Duration    `json:"gen_time,omitempty"`
	// ExeTime counts every platform call, failed attempts included.
	ExeTime time.Duration `json:"exe_time,omitempty"`
	TTCWall time.Duration `json:"ttc_wall,omitempty"`

	// Resilience accounting under FailPolicy Degrade (see resilience.go).
	Quarantined bool   `json:"quarantined,omitempty"`
	Skips       []Skip `json:"skips,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	Timeouts    int    `json:"timeouts,omitempty"`

	// Records are the program's experiment-log records. The journal carries
	// them so a resumed campaign replays them into its log.
	Records []logdb.Record `json:"logs,omitempty"`
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
			if rewords, err := arm.Encode(decoded); err == nil && slices.Equal(words, rewords) {
				return decoded, false
			}
			return prog, true
		}
	}
	return prog, false
}

// genOut is generateTests' product for one program: the generated test
// cases with their per-test generation times and the solver query count.
type genOut struct {
	tests   []*core.TestCase
	durs    []time.Duration
	genTime time.Duration
	queries int
}

// generateTests drives the refinement-guided generator for program p until
// TestsPerProgram cases exist or the relation is exhausted. Generation never
// depends on execution results.
func generateTests(ctx context.Context, e *Experiment, pl *Pipeline, p int) genOut {
	var out genOut
	spanStart := time.Now()
	g := pl.generatorCtx(ctx, e, e.Seed+int64(p)+1, p)
	defer g.Release()
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
	e.Trace.Span("testgen", p, spanStart)
	return out
}

// trainingStates memoizes one program's training states by test path. A
// path with no feasible alternative is remembered as nil, so its later test
// cases do not solve every other path condition again.
type trainingStates struct {
	solve  func(path int) (*core.State, bool)
	byPath map[int]*core.State
}

// get returns the training state for path, nil when there is none.
func (ts *trainingStates) get(path int) *core.State {
	if st, ok := ts.byPath[path]; ok {
		return st
	}
	st, _ := ts.solve(path)
	ts.byPath[path] = st
	return st
}

// executeProgram runs every generated test case of program p on the
// platform and classifies the verdicts. Each test case is a batch over the
// campaign's rows (Experiment.rows): the primary row first, then every other
// platform of a matrix back to back, with the same training state and noise
// seed (both platform-independent by construction, which is what keeps a
// matrix row comparable to the equivalent single-platform campaign). A
// single-platform campaign is the one-row case.
//
// Under FailPolicy Degrade a test whose retry budget is exhausted on the
// primary row becomes a skip record instead of a campaign abort, skips the
// whole batch so the rows stay aligned on one executed test set, and
// QuarantineAfter consecutive such failures quarantine the program (its
// remaining tests count as skipped). A failure on another row skips only
// that row's run.
func executeProgram(ctx context.Context, e *Experiment, pl *Pipeline, p int, g genOut, start time.Time) (*programResult, error) {
	out := &programResult{GenTime: g.genTime, Queries: g.queries, Rows: make([]PlatformResult, len(e.rows))}
	for k := range out.Rows {
		out.Rows[k] = PlatformResult{FirstCEProgram: -1, FirstCETest: -1}
		if len(e.Platforms) > 0 {
			out.Rows[k].Platform = e.Platforms[k].Name
		}
	}
	skipRows := func(n int) {
		for k := range out.Rows {
			out.Rows[k].SkippedTests += n
		}
	}
	spanStart := time.Now()
	trainStates := trainingStates{byPath: map[int]*core.State{}, solve: func(path int) (*core.State, bool) {
		return pl.TrainingState(path, e.Seed+int64(p))
	}}
	consecutive := 0
tests:
	for t, tc := range g.tests {
		var train *core.State
		if e.Speculative {
			train = trainStates.get(tc.PathA)
		}
		for k, re := range e.rows {
			row := &out.Rows[k]
			exeStart := time.Now()
			verdict, stats, err := pl.executeTestCase(ctx, re, p, t, tc, train, noiseSeed(e.Seed, p, t))
			exeDur := time.Since(exeStart)
			out.ExeTime += exeDur
			out.Retries += stats.retries
			out.Timeouts += stats.timeouts
			if err != nil {
				if e.FailPolicy != Degrade || ctx.Err() != nil {
					if k > 0 {
						err = fmt.Errorf("platform %s: %w", row.Platform, err)
					}
					return nil, err
				}
				if k > 0 {
					row.SkippedTests++
					continue
				}
				skipRows(1)
				out.Skips = append(out.Skips, Skip{Prog: p, Test: t, Reason: err.Error()})
				e.Trace.Skip(p, t, err.Error())
				consecutive++
				if consecutive >= e.QuarantineAfter {
					skipRows(len(g.tests) - t - 1)
					out.Quarantined = true
					reason := fmt.Sprintf("quarantined after %d consecutive failures (last: %v)", consecutive, err)
					out.Skips = append(out.Skips, Skip{Prog: p, Test: -1, Reason: reason})
					e.Trace.Quarantine(p, reason)
					break tests
				}
				continue tests
			}
			if k == 0 {
				consecutive = 0
				e.Trace.Verdict(p, t, verdict.String(), exeDur)
				if verdict == Counterexample && !row.Found {
					out.TTCWall = time.Since(start)
				}
			}
			row.count(verdict, exeDur, p, t)
			if len(e.Platforms) > 0 {
				e.Trace.PlatformVerdict(p, t, row.Platform, verdict.String(), exeDur)
			}
			// Log records are built when either consumer exists: the
			// experiment log appends them now, and the journal carries them
			// durably so a resumed campaign can replay them into a log
			// opened only later.
			if e.Log != nil || e.Journal != nil {
				out.Records = append(out.Records, logdb.Record{
					Experiment: e.Name,
					Program:    pl.Prog.Name,
					TestIndex:  t,
					PathA:      tc.PathA,
					PathB:      tc.PathB,
					Class:      tc.Class,
					Verdict:    verdict.String(),
					Platform:   row.Platform,
					GenMicros:  g.durs[t].Microseconds(),
					ExeMicros:  exeDur.Microseconds(),
					Diff:       tc.Diff(),
				})
			}
		}
	}
	e.Trace.Span("execute", p, spanStart)
	e.Trace.ProgramDone()
	return out, nil
}

// mergeProgram folds one program's result into the campaign Result. Callers
// must invoke it in ascending program order: that ordering is what makes
// counts, the log record sequence, and the first-counterexample index
// deterministic regardless of worker scheduling.
func (res *Result) mergeProgram(e *Experiment, p int, out *programResult) error {
	primary := &out.Rows[0]
	res.Programs++
	res.Experiments += primary.Experiments
	res.Counterexamples += primary.Counterexamples
	res.Inconclusive += primary.Inconclusive
	res.SkippedTests += primary.SkippedTests
	res.EncodeFallbacks += out.EncodeFallbacks
	res.Queries += out.Queries
	res.GenTime += out.GenTime
	res.ExeTime += out.ExeTime
	if out.Quarantined {
		res.QuarantinedPrograms++
	}
	res.Skips = append(res.Skips, out.Skips...)
	res.Retries += out.Retries
	res.Timeouts += out.Timeouts
	if primary.Found {
		res.ProgramsWithCounter++
		if !res.Found {
			// First in program order: the deterministic index.
			res.FirstCEProgram, res.FirstCETest = primary.FirstCEProgram, primary.FirstCETest
		}
		if !res.Found || out.TTCWall < res.TTC {
			res.Found = true
			res.TTC = out.TTCWall
		}
	}
	for k := range res.Matrix {
		res.Matrix[k].add(&out.Rows[k])
	}
	if e.Log != nil {
		for _, rec := range out.Records {
			if err := e.Log.Append(rec); err != nil {
				return err
			}
		}
	}
	// Journal the program as it commits: mergeProgram is the engine's
	// in-order merge point, so appends arrive in strict program order — the
	// contiguity internal/journal enforces. Restored programs (p < restoredN)
	// were journaled before the restart and are only replayed here.
	if e.Journal != nil && p >= e.restoredN {
		return e.Journal.Append(p, out)
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

// Run executes a full experiment campaign (see RunContext). Counts are deterministic per seed regardless of Parallel;
// only wall-clock times vary with scheduling.
func Run(cfg Experiment) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a full experiment campaign under a context: cancelling
// ctx stops the campaign promptly and returns the context's error.
//
// The campaign runs on an ordered pool of Parallel programs in flight
// (runPool), so test generation for one program overlaps platform execution
// of another while results merge in program order.
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
	e.machines = machinesFor(e.Micro)
	if err := buildRows(&e); err != nil {
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
		// engine uses.
		e.restoredN = len(restored) // before the merges: it gates re-journaling
		for p, raw := range restored {
			var out programResult
			if err := json.Unmarshal(raw, &out); err != nil {
				return nil, fmt.Errorf("scamv: journal program %d: %w", p, err)
			}
			if len(out.Rows) != len(e.rows) {
				return nil, fmt.Errorf("scamv: journal program %d has %d platform rows but the campaign runs %d", p, len(out.Rows), len(e.rows))
			}
			if err := res.mergeProgram(&e, p, &out); err != nil {
				return nil, err
			}
		}
		res.RestoredPrograms = e.restoredN
		if e.restoredN > 0 {
			e.Trace.Resume(e.Name, e.restoredN)
		}
	}
	if err := runPool(ctx, &e, res, time.Now()); err != nil {
		return nil, err
	}
	if e.Drain != nil && e.drainRequested() && res.Programs < e.Programs {
		res.Drained = true
	}
	return res, nil
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
