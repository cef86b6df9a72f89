package stage

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A panicking stage body must not kill the worker or wedge the pipeline: the
// panic becomes a stack-annotated error on the item, and the failure protocol
// (lowest index wins, tail skipped) applies exactly as for a returned error.
func TestPanicRecoveredAsStageError(t *testing.T) {
	c := NewCoord(context.Background())
	defer c.Cancel()
	const n = 10
	src := Source(c, "src", 4, n, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	st := Attach(c, "boomer", func(_ context.Context, v int) (int, error) {
		if v == 2 {
			panic("kaboom at two")
		}
		return v, nil
	}, 4, 4, src)
	var okIdx []int
	if err := Collect(c, "collect", st, func(it Item[int]) error {
		if it.Err == nil {
			okIdx = append(okIdx, it.Index)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	idx, err := c.FirstErr()
	if idx != 2 || err == nil {
		t.Fatalf("FirstErr = (%d, %v), want the panic at index 2", idx, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Stage != "boomer" {
		t.Errorf("PanicError.Stage = %q, want boomer", pe.Stage)
	}
	if pe.Value != "kaboom at two" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("PanicError.Stack does not look like a stack trace")
	}
	if !strings.Contains(err.Error(), "boomer") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error text %q lacks stage name or panic value", err.Error())
	}
	// Items 0 and 1 must still have completed.
	for _, want := range []int{0, 1} {
		found := false
		for _, i := range okIdx {
			if i == want {
				found = true
			}
		}
		if !found {
			t.Errorf("pre-panic item %d did not complete", want)
		}
	}
}

// A panic in a source generator is recovered the same way.
func TestPanicInSourceRecovered(t *testing.T) {
	c := NewCoord(context.Background())
	defer c.Cancel()
	src := Source(c, "src", 1, 3, func(_ context.Context, i int) (int, error) {
		if i == 1 {
			panic(errors.New("generator exploded"))
		}
		return i, nil
	})
	if err := Collect(c, "collect", src, func(Item[int]) error { return nil }); err != nil {
		t.Fatal(err)
	}
	idx, err := c.FirstErr()
	if idx != 1 {
		t.Fatalf("FirstErr index = %d, want 1", idx)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Stage != "src" {
		t.Errorf("PanicError.Stage = %q, want src", pe.Stage)
	}
}
