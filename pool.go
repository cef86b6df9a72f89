package scamv

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"scamv/internal/arm"
)

// This file runs the campaign as an ordered pool of programs, following the
// paper's Fig. 1 flow for each one:
//
//	proggen → encode → lift → symexec → testgen → execute → merge
//
// Program p's flow never waits on any other program, so one goroutine runs
// it from the encode round trip to execution, and Parallel of them overlap
// test generation for one program with execution of another. Results merge
// in strict program order, which keeps counts, logs and journals identical
// at any Parallel.

// programDone is one program's outcome, sent back to the merging loop.
type programDone struct {
	p   int
	out *programResult
	err error
}

// runPool executes the campaign's live programs [restoredN, Programs).
//
// The calling goroutine owns the template RNG: it generates program p only
// while fewer than Parallel programs are in flight, and merges the finished
// ones through mergeProgram in ascending program order. A failing program q
// becomes the cutoff: no program above q starts, those below it complete and
// merge, and the error names the lowest failing program whatever the
// scheduling. A drain stops generation and lets the in-flight programs finish
// and merge. runPool returns only after every goroutine it started has
// returned.
func runPool(ctx context.Context, e *Experiment, res *Result, start time.Time) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parallel := max(e.Parallel, 1)

	// The RNG is one sequential stream, so the programs after a
	// journal-restored prefix only come out right after the draws for it.
	progRng := rand.New(rand.NewSource(e.Seed))
	for p := 0; p < e.restoredN; p++ {
		e.Template.Generate(progRng, p)
	}

	// At most parallel programs are in flight, so no send ever blocks.
	done := make(chan programDone, parallel)
	pending := make(map[int]*programResult)
	next, merged, inFlight := e.restoredN, e.restoredN, 0
	cutoff, cutoffErr := math.MaxInt, error(nil)
	fail := func(p int, err error) {
		if p < cutoff {
			cutoff, cutoffErr = p, err
		}
	}
	var mergeErr error
	for {
		for inFlight < parallel && next < e.Programs && next < cutoff &&
			ctx.Err() == nil && !e.drainRequested() {
			p := next
			next++
			prog, err := generateProgram(e, progRng, p)
			if err != nil {
				fail(p, err)
				break
			}
			inFlight++
			go func() {
				out, err := runProgram(ctx, e, p, prog, start)
				done <- programDone{p: p, out: out, err: err}
			}()
		}
		if inFlight == 0 {
			break
		}
		d := <-done
		inFlight--
		if d.err != nil {
			fail(d.p, d.err)
		} else {
			pending[d.p] = d.out
		}
		for mergeErr == nil && merged < cutoff {
			out, ok := pending[merged]
			if !ok {
				break
			}
			delete(pending, merged)
			if mergeErr = res.mergeProgram(e, merged, out); mergeErr != nil {
				// The log or journal failed: nothing more can be recorded,
				// so cancel the programs in flight and wait them out.
				cancel()
			}
			merged++
		}
	}
	switch {
	case parent.Err() != nil:
		return parent.Err()
	case mergeErr != nil:
		return mergeErr
	case cutoffErr != nil:
		return fmt.Errorf("scamv: program %d: %w", cutoff, cutoffErr)
	}
	return nil
}

// generateProgram draws program p from the template and traces its proggen
// span. A panicking template becomes an error.
func generateProgram(e *Experiment, rng *rand.Rand, p int) (prog *arm.Program, err error) {
	defer recoverPanic(&err)
	t0 := time.Now()
	prog = e.Template.Generate(rng, p)
	e.Trace.Span("proggen", p, t0)
	return prog, nil
}

// runProgram is one program's flow after generation: the A64 encode round
// trip, lifting and symbolic execution, test generation, and execution of
// every test case on the platform. ctx reaches the SAT search and the
// platform. A panic anywhere in it becomes an error.
func runProgram(ctx context.Context, e *Experiment, p int, prog *arm.Program, start time.Time) (out *programResult, err error) {
	defer recoverPanic(&err)
	t0 := time.Now()
	prog, fallback := encodeRoundTrip(prog)
	e.Trace.Span("encode", p, t0)
	pl, err := newPipelineTraced(prog, e.Model, e.Trace, p)
	if err != nil {
		return nil, err
	}
	out, err = executeProgram(ctx, e, pl, p, generateTests(ctx, e, pl, p), start)
	if err != nil {
		return nil, err
	}
	if fallback {
		out.EncodeFallbacks++
	}
	return out, nil
}

// recoverPanic, deferred, turns a panic into an error carrying the panic
// value and the panicking goroutine's stack, so one pathological program (a
// lifter or solver panic) fails the campaign instead of the process.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
	}
}
