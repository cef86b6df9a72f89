package resilient

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// noSleep replaces the backoff sleep so retry tests run instantly.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"default transient", base, Transient},
		{"marked transient", MarkTransient(base), Transient},
		{"marked permanent", MarkPermanent(base), Permanent},
		{"wrapped mark survives", fmt.Errorf("outer: %w", MarkPermanent(base)), Permanent},
		{"deadline transient", context.DeadlineExceeded, Transient},
		{"canceled permanent", context.Canceled, Permanent},
		{"wrapped canceled", fmt.Errorf("ctx: %w", context.Canceled), Permanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
	if MarkTransient(nil) != nil || MarkPermanent(nil) != nil {
		t.Errorf("Mark* of nil must stay nil")
	}
	// Marks keep the message and the chain.
	if got := MarkPermanent(base).Error(); got != "boom" {
		t.Errorf("marked error message = %q", got)
	}
	if !errors.Is(MarkTransient(base), base) {
		t.Errorf("marked error must unwrap to the original")
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	calls := 0
	var retried []int
	p := Policy{
		Retries: 5,
		Sleep:   noSleep,
		OnRetry: func(attempt int, err error) { retried = append(retried, attempt) },
	}
	v, o, err := Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, errors.New("flaky")
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Do = (%d, %v), want (42, nil)", v, err)
	}
	if calls != 3 || o.Attempts != 3 || o.Retries != 2 {
		t.Fatalf("calls=%d outcome=%+v, want 3 attempts 2 retries", calls, o)
	}
	if len(retried) != 2 || retried[0] != 0 || retried[1] != 1 {
		t.Fatalf("OnRetry attempts = %v, want [0 1]", retried)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	dead := MarkPermanent(errors.New("dead board"))
	_, o, err := Do(context.Background(), Policy{Retries: 10, Sleep: noSleep},
		func(context.Context) (int, error) {
			calls++
			return 0, dead
		})
	if !errors.Is(err, dead) {
		t.Fatalf("err = %v, want the permanent error", err)
	}
	if calls != 1 || o.Attempts != 1 || o.Retries != 0 {
		t.Fatalf("permanent error must not retry: calls=%d outcome=%+v", calls, o)
	}
}

func TestDoExhaustsRetryBudget(t *testing.T) {
	calls := 0
	_, o, err := Do(context.Background(), Policy{Retries: 3, Sleep: noSleep},
		func(context.Context) (int, error) {
			calls++
			return 0, errors.New("always flaky")
		})
	if err == nil {
		t.Fatal("want error after exhausted budget")
	}
	if calls != 4 || o.Attempts != 4 || o.Retries != 3 {
		t.Fatalf("calls=%d outcome=%+v, want 4 attempts 3 retries", calls, o)
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	calls := 0
	timeouts := 0
	p := Policy{
		Timeout:   5 * time.Millisecond,
		Retries:   2,
		Sleep:     noSleep,
		OnTimeout: func(int) { timeouts++ },
	}
	_, o, err := Do(context.Background(), p, func(ctx context.Context) (int, error) {
		calls++
		if calls < 3 {
			<-ctx.Done() // simulate a hang that honors the deadline
			return 0, ctx.Err()
		}
		return 7, nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || o.Timeouts != 2 || timeouts != 2 || o.Retries != 2 {
		t.Fatalf("calls=%d timeouts=%d outcome=%+v", calls, timeouts, o)
	}
}

func TestDoParentCancellationWinsOverRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, o, err := Do(ctx, Policy{Retries: 100, Sleep: noSleep},
		func(context.Context) (int, error) {
			calls++
			cancel()
			return 0, errors.New("flaky")
		})
	if err == nil {
		t.Fatal("want error")
	}
	if calls != 1 || o.Retries != 0 {
		t.Fatalf("cancelled parent must stop retrying: calls=%d outcome=%+v", calls, o)
	}
	// A fresh Do on a cancelled ctx makes no attempts at all.
	_, o, err = Do(ctx, Policy{Sleep: noSleep}, func(context.Context) (int, error) {
		t.Fatal("must not be called")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || o.Attempts != 0 {
		t.Fatalf("cancelled ctx: err=%v outcome=%+v", err, o)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BackoffBase: time.Millisecond, BackoffMax: 16 * time.Millisecond, JitterSeed: 99}
	var prev []time.Duration
	for round := 0; round < 2; round++ {
		var ds []time.Duration
		for a := 0; a < 10; a++ {
			d := backoff(p, a)
			lo := time.Duration(float64(minDur(p.BackoffBase<<uint(a), p.BackoffMax)) * 0.5)
			hi := time.Duration(float64(minDur(p.BackoffBase<<uint(a), p.BackoffMax)) * 1.5)
			if d < lo || d >= hi {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", a, d, lo, hi)
			}
			ds = append(ds, d)
		}
		if round == 1 {
			for i := range ds {
				if ds[i] != prev[i] {
					t.Fatalf("backoff not deterministic at attempt %d: %v != %v", i, ds[i], prev[i])
				}
			}
		}
		prev = ds
	}
	// A different seed produces a different schedule.
	q := p
	q.JitterSeed = 100
	same := true
	for a := 0; a < 10; a++ {
		if backoff(q, a) != prev[a] {
			same = false
		}
	}
	if same {
		t.Fatal("different jitter seeds produced identical schedules")
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b && a > 0 {
		return a
	}
	return b
}

func TestSplitmix64(t *testing.T) {
	// First output of the canonical splitmix64 stream seeded with 0.
	if got := Splitmix64(0); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Splitmix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if Splitmix64(1) == Splitmix64(2) {
		t.Fatal("mixer collision on adjacent inputs")
	}
}
