// Package stage is the plumbing of the staged campaign engine: typed
// pipeline stages connected by bounded channels, each driven by its own
// worker pool, with cooperative cancellation and a metrics spine.
//
// The design mirrors the paper's Fig. 1 pipeline (generate → lift →
// symbolically execute → synthesize relation → generate inputs → run on
// platform → analyze): every box becomes a stage, every arrow a bounded
// channel, and the engine overlaps the boxes — test generation for program
// p+1 runs while program p executes on the platform.
//
// Determinism by ordering: every work item carries the sequence index its
// source assigned (Item.Index). Stages run items concurrently and may emit
// them out of order, but each stage emits exactly one output item per input
// item, so the terminal Collect can re-establish the source order with a
// reorder buffer. Campaign counts are therefore identical to a sequential
// run regardless of worker counts — only wall clock changes.
//
// Failure protocol: the first error at index q makes q the cutoff. Items
// above the cutoff are skipped (they ride through the pipeline as
// ErrSkipped tombstones so the reorder buffer stays gap-free), items below
// it complete normally, and the reported error is the one with the lowest
// index regardless of worker scheduling. External cancellation via the
// Coord's context tears the whole pipeline down promptly.
package stage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Item is one unit of work in flight, tagged with the sequence index its
// source assigned. Err carries a processing failure (or ErrSkipped) past
// downstream stages so the terminal collector sees every index exactly once.
type Item[T any] struct {
	Index int
	Val   T
	Err   error
}

// ErrSkipped marks an item that was dropped because its index lies above
// the failure cutoff; its payload was never computed.
var ErrSkipped = errors.New("stage: skipped past failure cutoff")

// ErrStop, returned by a Source generator, ends production cleanly: no
// further items are generated, no failure is recorded, and everything
// already in flight drains through the pipeline to the collector. It is the
// graceful-shutdown seam — distinct from Coord.Cancel, which tears down
// in-flight work instead of draining it.
var ErrStop = errors.New("stage: source stopped")

// PanicError wraps a panic recovered from a stage body. The pipeline treats
// it like any other processing error — the item fails, the failure cutoff
// protocol applies — instead of letting one pathological program (a lifter
// or solver panic) crash the whole process. Stack is the panicking
// goroutine's stack, captured at recovery.
type PanicError struct {
	Stage string // stage (or source) name
	Value any    // the value passed to panic
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("stage %s: panic: %v\n%s", p.Stage, p.Value, p.Stack)
}

// runItem invokes f, converting a panic into a *PanicError. The item-level
// work of Source and Attach goes through it so a panicking stage body
// follows the lowest-index failure protocol like a returned error.
func runItem[In, Out any](ctx context.Context, name string, in In, f func(context.Context, In) (Out, error)) (out Out, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stage: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return f(ctx, in)
}

// Metrics is one stage's live counter set. All fields are atomic: workers
// update them concurrently and Snapshot may be read while the pipeline runs.
type Metrics struct {
	name    string
	workers int

	in, out, skipped, failed atomic.Int64
	busyNS, waitNS, stallNS  atomic.Int64
}

// Snapshot is a point-in-time copy of one stage's metrics, the unit of the
// campaign's Result.Stages spine.
type Snapshot struct {
	Name    string
	Workers int
	In      int64         // items received
	Out     int64         // items emitted (includes tombstones)
	Skipped int64         // items dropped past the failure cutoff
	Failed  int64         // items whose stage body returned an error
	Busy    time.Duration // total time inside the stage body, summed over workers
	Wait    time.Duration // total time blocked receiving input (starvation)
	Stall   time.Duration // total time blocked sending output (backpressure)
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Name:    m.name,
		Workers: m.workers,
		In:      m.in.Load(),
		Out:     m.out.Load(),
		Skipped: m.skipped.Load(),
		Failed:  m.failed.Load(),
		Busy:    time.Duration(m.busyNS.Load()),
		Wait:    time.Duration(m.waitNS.Load()),
		Stall:   time.Duration(m.stallNS.Load()),
	}
}

// Coord is the shared control state of one pipeline run: the cancellation
// context, the failure cutoff, the lowest-index error, and the metrics of
// every attached stage (in attach order).
type Coord struct {
	ctx    context.Context
	cancel context.CancelFunc

	cutoff atomic.Int64 // lowest failed index; items above it are skipped

	mu       sync.Mutex
	firstIdx int
	firstErr error
	metrics  []*Metrics
}

// NewCoord derives a pipeline coordinator from a parent context. Cancel
// must be called when the run is over (defer it next to the Collect call).
func NewCoord(ctx context.Context) *Coord {
	cctx, cancel := context.WithCancel(ctx)
	c := &Coord{ctx: cctx, cancel: cancel, firstIdx: math.MaxInt}
	c.cutoff.Store(math.MaxInt64)
	return c
}

// Context returns the run's cancellation context.
func (c *Coord) Context() context.Context { return c.ctx }

// Cancel tears the pipeline down: sources stop producing and workers abort
// between items.
func (c *Coord) Cancel() { c.cancel() }

// Fail records a processing error for the item at index. The cutoff drops
// to the lowest failing index; items above it are skipped from then on,
// items below it still complete, which makes FirstErr deterministic
// regardless of worker scheduling.
func (c *Coord) Fail(index int, err error) {
	for {
		cur := c.cutoff.Load()
		if int64(index) >= cur {
			break
		}
		if c.cutoff.CompareAndSwap(cur, int64(index)) {
			break
		}
	}
	c.mu.Lock()
	if index < c.firstIdx {
		c.firstIdx, c.firstErr = index, err
	}
	c.mu.Unlock()
}

// FirstErr returns the recorded error with the lowest item index, or a nil
// error when every item succeeded.
func (c *Coord) FirstErr() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstIdx, c.firstErr
}

// Snapshots returns the metrics of every stage attached so far, in attach
// (pipeline) order.
func (c *Coord) Snapshots() []Snapshot {
	c.mu.Lock()
	ms := append([]*Metrics(nil), c.metrics...)
	c.mu.Unlock()
	out := make([]Snapshot, len(ms))
	for i, m := range ms {
		out[i] = m.Snapshot()
	}
	return out
}

func (c *Coord) addMetrics(name string, workers int) *Metrics {
	m := &Metrics{name: name, workers: workers}
	c.mu.Lock()
	c.metrics = append(c.metrics, m)
	c.mu.Unlock()
	return m
}

// Source starts the pipeline's producer: a single goroutine calling gen for
// indexes 0..n-1 in order (so gen may own sequential state, e.g. the
// program-generation RNG) and emitting tagged items on a channel with the
// given buffer. Production stops early at cancellation, at the failure
// cutoff, or when gen itself fails.
func Source[T any](c *Coord, name string, buf, n int, gen func(ctx context.Context, i int) (T, error)) <-chan Item[T] {
	m := c.addMetrics(name, 1)
	out := make(chan Item[T], buf)
	go func() {
		defer close(out)
		for i := 0; i < n; i++ {
			if c.ctx.Err() != nil || int64(i) > c.cutoff.Load() {
				return
			}
			t0 := time.Now()
			v, err := runItem(c.ctx, name, i, gen)
			m.busyNS.Add(time.Since(t0).Nanoseconds())
			it := Item[T]{Index: i, Val: v}
			if errors.Is(err, ErrStop) {
				return
			}
			if err != nil {
				c.Fail(i, err)
				m.failed.Add(1)
				return
			}
			s0 := time.Now()
			select {
			case out <- it:
				m.stallNS.Add(time.Since(s0).Nanoseconds())
				m.out.Add(1)
			case <-c.ctx.Done():
				return
			}
		}
	}()
	return out
}

// Attach connects a stage — one box of the pipeline, the per-item
// transformation run — to its input channel with the given worker count and
// output buffer, returning the output channel. run must be safe for
// concurrent calls (one per worker) and should honor ctx for long
// computations; the engine also checks ctx between items. Each worker loops:
// receive, skip-or-run, emit. Items that arrive already failed (or above
// the cutoff) pass through as tombstones without invoking run, so every
// input index reaches the output exactly once.
func Attach[In, Out any](c *Coord, name string, run func(context.Context, In) (Out, error), workers, buf int, in <-chan Item[In]) <-chan Item[Out] {
	if workers < 1 {
		workers = 1
	}
	m := c.addMetrics(name, workers)
	out := make(chan Item[Out], buf)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w0 := time.Now()
				var it Item[In]
				var ok bool
				select {
				case it, ok = <-in:
				case <-c.ctx.Done():
					return
				}
				m.waitNS.Add(time.Since(w0).Nanoseconds())
				if !ok {
					return
				}
				m.in.Add(1)
				o := Item[Out]{Index: it.Index, Err: it.Err}
				switch {
				case it.Err != nil:
					// Tombstone from upstream: pass through untouched.
				case int64(it.Index) > c.cutoff.Load():
					o.Err = ErrSkipped
					m.skipped.Add(1)
				default:
					b0 := time.Now()
					v, err := runItem(c.ctx, name, it.Val, run)
					m.busyNS.Add(time.Since(b0).Nanoseconds())
					if err != nil {
						c.Fail(it.Index, err)
						o.Err = err
						m.failed.Add(1)
					} else {
						o.Val = v
					}
				}
				s0 := time.Now()
				select {
				case out <- o:
					m.stallNS.Add(time.Since(s0).Nanoseconds())
					m.out.Add(1)
				case <-c.ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Collect is the pipeline's terminal stage: it drains in and invokes fn in
// strict ascending index order (0, 1, 2, ...), buffering out-of-order
// arrivals, which re-establishes source order — the determinism-by-ordering
// contract. Tombstoned items (Err != nil) are passed to fn too so it can
// account for them; fn returning an error aborts the run. Collect returns
// when the channel closes or the context is cancelled.
func Collect[T any](c *Coord, name string, in <-chan Item[T], fn func(Item[T]) error) error {
	m := c.addMetrics(name, 1)
	pending := make(map[int]Item[T])
	next := 0
	emit := func(it Item[T]) error {
		b0 := time.Now()
		err := fn(it)
		m.busyNS.Add(time.Since(b0).Nanoseconds())
		if err != nil {
			m.failed.Add(1)
			return err
		}
		m.out.Add(1)
		return nil
	}
	flush := func() error {
		for {
			it, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			next++
			if err := emit(it); err != nil {
				return err
			}
		}
	}
	for {
		w0 := time.Now()
		select {
		case it, ok := <-in:
			m.waitNS.Add(time.Since(w0).Nanoseconds())
			if !ok {
				// The source may have stopped early (cutoff), so the tail of
				// the index space never arrives; what did arrive is a
				// contiguous prefix and flush has already emitted it. Any
				// leftovers mean an upstream bug — emit them in index order
				// anyway rather than dropping silently.
				for len(pending) > 0 {
					lo := math.MaxInt
					for i := range pending {
						if i < lo {
							lo = i
						}
					}
					it := pending[lo]
					delete(pending, lo)
					if err := emit(it); err != nil {
						return err
					}
				}
				return nil
			}
			m.in.Add(1)
			pending[it.Index] = it
			if err := flush(); err != nil {
				return err
			}
		case <-c.ctx.Done():
			return c.ctx.Err()
		}
	}
}
