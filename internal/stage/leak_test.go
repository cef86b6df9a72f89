package stage

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestCancelWhileStalledDoesNotLeakGoroutines wedges a pipeline on
// backpressure — tiny buffers, a slow producer-side fan-out and no collector
// draining the tail — then cancels it and checks every worker goroutine
// exits. Workers blocked sending output must take the ctx.Done arm of their
// select; a missing Done case would park them on the full channel forever.
func TestCancelWhileStalledDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	c := NewCoord(context.Background())
	src := Source(c, "gen", 0, 1000, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	mid := Attach(c, "double", func(ctx context.Context, v int) (int, error) {
		return v * 2, nil
	}, 4, 1, src)
	// A second stage with an unbuffered output and no consumer: its workers
	// fill the one-slot pipe and stall on send.
	_ = Attach(c, "stall", func(ctx context.Context, v int) (int, error) {
		return v + 1, nil
	}, 4, 0, mid)

	// Let the pipeline actually wedge: the stall stage must have received
	// items and be blocked emitting them before we pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps := c.Snapshots()
		if snaps[2].In > snaps[2].Out {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never stalled on backpressure")
		}
		time.Sleep(time.Millisecond)
	}

	c.Cancel()

	// Goroutine counts are asynchronous: exits race with our observation, so
	// poll with a deadline before declaring a leak.
	var after int
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after cancel: before=%d after=%d\n%s", before, after, buf[:n])
}

// TestCancelMidCollectUnblocks covers the collector side of the same
// contract: Collect blocked waiting for input must return the context error
// on cancellation rather than waiting for a close that never comes.
func TestCancelMidCollectUnblocks(t *testing.T) {
	before := runtime.NumGoroutine()

	c := NewCoord(context.Background())
	// A source that produces one item and then blocks forever (until
	// cancellation) keeps the collector starved mid-run.
	src := Source(c, "gen", 0, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return i, nil
	})
	done := make(chan error, 1)
	go func() {
		done <- Collect(c, "sink", src, func(it Item[int]) error { return nil })
	}()

	time.Sleep(10 * time.Millisecond)
	c.Cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Collect returned nil after cancellation mid-stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collect did not return after cancel")
	}

	var after int
	for i := 0; i < 200; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after cancel: before=%d after=%d\n%s", before, after, buf[:n])
}
