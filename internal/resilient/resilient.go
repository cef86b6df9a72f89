// Package resilient provides the generic resilience primitives of the
// campaign runtime: transient/permanent error classification, a bounded
// retry loop with per-attempt deadlines and seeded-jitter exponential
// backoff (Do).
//
// The package is deliberately free of scamv types: it operates on plain
// functions and errors, and the root package wires it around the Platform
// interface (see scamv.Experiment.FailPolicy).
// The motivating failure mode is the paper's real execution substrate — a
// farm of Raspberry Pi boards driven over a debug bridge, where boards
// hang, resets fail, and measurements get lost — so the defaults lean
// toward "retry it": an unclassified error is treated as transient.
//
// Everything randomized is seeded (Policy.JitterSeed), so retry schedules
// are reproducible: the same call with the same seed backs off by the same
// delays.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Class classifies an error's retryability.
type Class int

// Error classes.
const (
	// Transient errors may succeed on retry (a flaky board, a lost
	// measurement, an attempt deadline).
	Transient Class = iota
	// Permanent errors will not be fixed by retrying (a dead backend, an
	// impossible request, a cancelled campaign).
	Permanent
)

func (c Class) String() string {
	if c == Permanent {
		return "permanent"
	}
	return "transient"
}

// classified wraps an error with an explicit class, recoverable by Classify
// through arbitrarily deep %w chains.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// MarkTransient marks err explicitly transient. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Transient}
}

// MarkPermanent marks err explicitly permanent. A nil err stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Permanent}
}

// Classify determines an error's class: an explicit mark wins; a cancelled
// context is permanent (the caller is tearing down — retrying fights the
// shutdown); a deadline is transient (the next attempt gets a fresh one);
// everything else defaults to transient, the flaky-board assumption.
func Classify(err error) Class {
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	if errors.Is(err, context.Canceled) {
		return Permanent
	}
	return Transient
}

// Policy configures one Do call.
type Policy struct {
	// Timeout is the per-attempt deadline (0 = none). An attempt that
	// exceeds it fails with context.DeadlineExceeded, which classifies as
	// transient.
	Timeout time.Duration
	// Retries is the number of re-attempts after the first try (0 = one
	// attempt, no retry). Only transient failures are retried.
	Retries int

	// BackoffBase is the delay before the first retry (default 1ms); each
	// further retry doubles it, capped at BackoffMax (default 250ms). The
	// actual delay is scaled by a seeded jitter factor in [0.5, 1.5).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed derives the deterministic jitter stream for this call;
	// callers salt it per call identity so parallel calls de-synchronize
	// while any single call's schedule stays reproducible.
	JitterSeed uint64

	// ClassifyErr overrides the default Classify.
	ClassifyErr func(error) Class

	// OnRetry is invoked before each backoff sleep with the failing attempt
	// index (0-based) and its error. OnTimeout is invoked when an attempt
	// hits the per-attempt deadline. Both are optional telemetry hooks.
	OnRetry   func(attempt int, err error)
	OnTimeout func(attempt int)

	// Sleep replaces the context-aware backoff sleep in tests.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Outcome reports what one Do call spent.
type Outcome struct {
	Attempts int // attempts actually made
	Retries  int // backoff-and-retry transitions
	Timeouts int // attempts that hit the per-attempt deadline
}

// Splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer with full
// avalanche, the shared seed-derivation primitive of the resilience and
// fault-injection layers (and of the campaign noise seeds in the root
// package). Deriving every randomized schedule from it keeps chaos tests
// reproducible.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff computes the jittered delay before retrying after attempt.
func backoff(p Policy, attempt int) time.Duration {
	base := p.BackoffBase
	if base <= 0 {
		base = time.Millisecond
	}
	cap := p.BackoffMax
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	shift := attempt
	if shift > 20 {
		shift = 20
	}
	d := base << uint(shift)
	if d > cap || d <= 0 {
		d = cap
	}
	// Jitter factor in [0.5, 1.5), derived deterministically from the seed
	// and the attempt index.
	h := Splitmix64(p.JitterSeed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	frac := 0.5 + float64(h>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs f with the policy's deadline and retry semantics: each attempt
// gets its own deadline-bounded context derived from ctx; transient
// failures are retried up to p.Retries times with jittered exponential
// backoff; permanent failures and parent cancellation stop immediately.
// The returned error is the last attempt's (with timeout attempts
// annotated), and the Outcome is always valid.
func Do[T any](ctx context.Context, p Policy, f func(context.Context) (T, error)) (T, Outcome, error) {
	var zero T
	var o Outcome
	classify := p.ClassifyErr
	if classify == nil {
		classify = Classify
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, o, err
		}
		o.Attempts++
		actx := ctx
		var cancel context.CancelFunc
		if p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
		v, err := f(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return v, o, nil
		}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// The attempt deadline fired (the parent is still live).
			o.Timeouts++
			if p.OnTimeout != nil {
				p.OnTimeout(attempt)
			}
			err = fmt.Errorf("attempt %d exceeded the %v deadline: %w", attempt, p.Timeout, err)
		}
		if ctx.Err() != nil || classify(err) == Permanent || attempt >= p.Retries {
			return zero, o, err
		}
		o.Retries++
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		if d := backoff(p, attempt); d > 0 {
			if serr := sleep(ctx, d); serr != nil {
				return zero, o, serr
			}
		}
	}
}
