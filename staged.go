package scamv

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"scamv/internal/arm"
	"scamv/internal/stage"
	"scamv/internal/telemetry"
)

// This file wires the campaign as an explicit staged pipeline over
// internal/stage, mirroring the paper's Fig. 1 flow:
//
//	proggen → encode → prepare (lift+symexec) → testgen → execute → collect
//
// Every arrow is a bounded channel (backpressure), every box has its own
// worker pool, and every item is tagged with its program index so Collect
// merges results in program order — the determinism-by-ordering contract
// that keeps counts seed-for-seed identical at any Parallel while test
// generation for program p+1 overlaps execution of program p.

// Payload types flowing between stages. The program index rides inside the
// payload as well as in the item tag, because a stage body only sees the
// payload.
type stageProg struct {
	p        int
	prog     *arm.Program
	fallback bool
}

type stagePrepared struct {
	p        int
	pl       *Pipeline
	fallback bool
}

type stageGenned struct {
	p        int
	pl       *Pipeline
	gen      genOut
	fallback bool
}

// stageWorkers derives per-stage worker counts and the channel buffer from
// Experiment.Parallel. Lifting+symexec, test generation, and execution are
// the heavy stages and get the full budget; the encode round trip is cheap
// and gets half.
func stageWorkers(e *Experiment) (heavy, light, buf int) {
	heavy = e.Parallel
	if heavy < 1 {
		heavy = 1
	}
	if heavy > e.Programs && e.Programs > 0 {
		heavy = e.Programs
	}
	light = (heavy + 1) / 2
	return heavy, light, heavy
}

// stageCapacity is the most programs the staged engine can hold past
// ProgramGen at once: one generated but not yet sent, the Source buffer,
// and the workers plus output buffer of each stage runStaged attaches
// (encode on the light pool; prepare, testgen and execute on the heavy
// one). A drain only stops production, so a campaign no larger than this
// may be fully generated before a drain can take effect.
func stageCapacity(e *Experiment) int {
	heavy, light, buf := stageWorkers(e)
	return 1 + buf + (light + buf) + 3*(heavy+buf)
}

// runStaged executes the campaign on the staged engine.
func runStaged(ctx context.Context, e *Experiment, res *Result, start time.Time) error {
	heavy, light, buf := stageWorkers(e)
	c := stage.NewCoord(ctx)
	defer c.Cancel()

	// ProgramGen: single sequential producer owning the template RNG, so
	// the program sequence depends on the seed alone. On
	// resume, the journal-restored prefix is fast-forwarded here — the RNG
	// is one sequential stream, so programs [restoredN, Programs) only come
	// out right after the draws for [0, restoredN) — and the Source then
	// emits item indices 0..live-1 carrying true program index restoredN+i
	// in the payload (item indices must stay dense for the reorder buffer).
	progRng := rand.New(rand.NewSource(e.Seed))
	for p := 0; p < e.restoredN; p++ {
		e.Template.Generate(progRng, p)
	}
	live := e.Programs - e.restoredN
	progs := stage.Source(c, "proggen", buf, live,
		func(_ context.Context, i int) (stageProg, error) {
			// Graceful shutdown stops production between programs; ErrStop
			// ends the Source cleanly and in-flight items drain and merge.
			if e.drainRequested() {
				return stageProg{}, stage.ErrStop
			}
			p := e.restoredN + i
			t0 := time.Now()
			prog := e.Template.Generate(progRng, p)
			e.Trace.Span("proggen", p, t0)
			return stageProg{p: p, prog: prog}, nil
		})

	// Encode: A64 machine-code round trip (cheap, light pool).
	encoded := stage.Attach(c, "encode", func(_ context.Context, in stageProg) (stageProg, error) {
		t0 := time.Now()
		in.prog, in.fallback = encodeRoundTrip(in.prog)
		e.Trace.Span("encode", in.p, t0)
		return in, nil
	}, light, buf, progs)

	// Prepare: lift to BIR, instrument, symbolically execute (NewPipeline).
	prepared := stage.Attach(c, "prepare", func(_ context.Context, in stageProg) (stagePrepared, error) {
		pl, err := newPipelineTraced(in.prog, e.Model, e.Trace, in.p)
		if err != nil {
			return stagePrepared{}, err
		}
		return stagePrepared{p: in.p, pl: pl, fallback: in.fallback}, nil
	}, heavy, buf, encoded)

	// TestGen: refinement-guided test-case generation (core.Generator). The
	// stage context reaches the SAT search, so cancellation does not block
	// behind a pathological query.
	genned := stage.Attach(c, "testgen", func(sctx context.Context, in stagePrepared) (stageGenned, error) {
		return stageGenned{p: in.p, pl: in.pl, gen: generateTests(sctx, e, in.pl, in.p), fallback: in.fallback}, nil
	}, heavy, buf, prepared)

	// Execute: run every test case on the Platform and classify verdicts.
	executed := stage.Attach(c, "execute", func(sctx context.Context, in stageGenned) (*programResult, error) {
		out, err := executeProgram(sctx, e, in.pl, in.p, in.gen, start)
		if err != nil {
			return nil, err
		}
		if in.fallback {
			out.EncodeFallbacks++
		}
		return out, nil
	}, heavy, buf, genned)

	// Expose the live pipeline to the observatory: the tracer's /metrics
	// and /debug/scamv read busy/wait/stall through this source while the
	// campaign runs, and the flight recorder's stall watchdog samples it.
	// The coordinator's snapshots stay readable after the campaign, so the
	// last campaign remains scrapeable until the next one re-registers.
	e.Trace.SetPipelineSource(func() []telemetry.PipelineStage {
		snaps := c.Snapshots()
		out := make([]telemetry.PipelineStage, len(snaps))
		for i, s := range snaps {
			out[i] = telemetry.PipelineStage{
				Name:    s.Name,
				Workers: s.Workers,
				In:      s.In,
				Out:     s.Out,
				BusyUS:  s.Busy.Microseconds(),
				WaitUS:  s.Wait.Microseconds(),
				StallUS: s.Stall.Microseconds(),
			}
		}
		return out
	})

	// Collect: merge per-program results — counts, log records, the
	// first-counterexample index — in strict program order.
	err := stage.Collect(c, "collect", executed, func(it stage.Item[*programResult]) error {
		if it.Err != nil {
			// Failed or skipped item: the coordinator already recorded the
			// lowest-index failure; nothing to merge.
			return nil
		}
		// Item indices are 0-based over the live (non-restored) programs;
		// shift back to campaign program indices for the merge.
		return res.mergeProgram(e, e.restoredN+it.Index, it.Val)
	})
	res.Stages = c.Snapshots()
	if err != nil {
		return err
	}
	if p, ferr := c.FirstErr(); ferr != nil {
		return fmt.Errorf("scamv: program %d: %w", e.restoredN+p, ferr)
	}
	return ctx.Err()
}
