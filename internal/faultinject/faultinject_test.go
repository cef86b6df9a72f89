package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/expr"
	"scamv/internal/micro"
	"scamv/internal/resilient"
)

// stubPlatform is a healthy inner platform with a recognizable measurement.
type stubPlatform struct{ calls int }

func (s *stubPlatform) Execute(_ context.Context, _ *scamv.Experiment, _ *arm.Program, _, _ *core.State, _ *rand.Rand) (scamv.Measurement, error) {
	s.calls++
	return scamv.Measurement{
		Cycles:   100,
		Snapshot: &micro.Snapshot{Sets: []micro.SetTags{{Set: 3, Tags: []uint64{0x40, 0x41}}}},
	}, nil
}

func testProg(name string) *arm.Program { return &arm.Program{Name: name} }

func testState(x0 uint64) *core.State {
	return &core.State{
		Regs: map[string]uint64{"x0": x0, "x1": 7},
		Mem:  &expr.MemModel{Default: 0xab, Data: map[uint64]uint64{0x1000: x0}},
	}
}

// drawSchedule replays the fault schedule for a list of calls.
func drawSchedule(f *Platform, progs []*arm.Program, states []*core.State) []Kind {
	var out []Kind
	for i := range progs {
		out = append(out, f.draw(progs[i], states[i]))
	}
	return out
}

func TestScheduleDeterministicAcrossInstances(t *testing.T) {
	prof, err := Named("heavy")
	if err != nil {
		t.Fatal(err)
	}
	var progs []*arm.Program
	var states []*core.State
	for i := 0; i < 200; i++ {
		progs = append(progs, testProg("p"))
		states = append(states, testState(uint64(i)))
	}
	a := New(nil, prof, 42)
	b := New(nil, prof, 42)
	sa := drawSchedule(a, progs, states)
	sb := drawSchedule(b, progs, states)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("call %d: schedule diverged across instances: %v vs %v", i, sa[i], sb[i])
		}
	}
	// A different seed must produce a different schedule (with 200 draws under
	// the heavy profile, a collision over the full sequence is implausible).
	c := New(nil, prof, 43)
	sc := drawSchedule(c, progs, states)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-call schedules")
	}
	// And the heavy profile must actually inject something.
	injected := false
	for _, k := range sa {
		if k != None {
			injected = true
		}
	}
	if !injected {
		t.Fatal("heavy profile injected no faults in 200 calls")
	}
}

func TestRetryAdvancesSchedule(t *testing.T) {
	// With TransientProb = 1 downgraded per attempt: use a profile where the
	// first draw for some identity is Transient, and check the retry (same
	// identity, attempt 2) draws independently — i.e. the per-identity
	// counter advances the schedule rather than replaying the same fault.
	prof := Profile{Name: "t", TransientProb: 0.5}
	f := New(nil, prof, 7)
	prog, st := testProg("p"), testState(1)
	const n = 64
	kinds := make([]Kind, n)
	for i := range kinds {
		kinds[i] = f.draw(prog, st)
	}
	// All draws share one identity; if the counter were ignored they would
	// all be equal.
	varied := false
	for i := 1; i < n; i++ {
		if kinds[i] != kinds[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("64 draws of the same identity all returned %v: attempt counter not advancing", kinds[0])
	}
}

func TestTransientClearsUnderRetry(t *testing.T) {
	// End to end: a platform with a sizable transient rate must still let
	// resilient.Do succeed within a reasonable retry budget, because retries
	// advance the schedule.
	prof := Profile{Name: "t", TransientProb: 0.5}
	inner := &stubPlatform{}
	f := New(inner, prof, 3)
	e := &scamv.Experiment{}
	prog, st := testProg("p"), testState(1)
	p := resilient.Policy{Retries: 16, Sleep: func(context.Context, time.Duration) error { return nil }}
	_, _, err := resilient.Do(context.Background(), p, func(ctx context.Context) (scamv.Measurement, error) {
		return f.Execute(ctx, e, prog, st, st, nil)
	})
	if err != nil {
		t.Fatalf("transient faults did not clear under retry: %v", err)
	}
	if inner.calls == 0 {
		t.Fatal("inner platform never reached")
	}
}

func TestFaultClassification(t *testing.T) {
	inner := &stubPlatform{}
	e := &scamv.Experiment{}
	prog, st := testProg("p"), testState(1)

	ft := New(inner, Profile{Name: "t", TransientProb: 1}, 1)
	_, err := ft.Execute(context.Background(), e, prog, st, st, nil)
	if err == nil || resilient.Classify(err) != resilient.Transient {
		t.Fatalf("TransientProb=1: got err %v (class %v), want transient", err, resilient.Classify(err))
	}

	fp := New(inner, Profile{Name: "p", PermanentProb: 1}, 1)
	_, err = fp.Execute(context.Background(), e, prog, st, st, nil)
	if err == nil || resilient.Classify(err) != resilient.Permanent {
		t.Fatalf("PermanentProb=1: got err %v (class %v), want permanent", err, resilient.Classify(err))
	}
}

func TestHangHonorsContext(t *testing.T) {
	inner := &stubPlatform{}
	f := New(inner, Profile{Name: "h", HangProb: 1}, 1) // HangFor 0: hang until cancel
	e := &scamv.Experiment{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := f.Execute(ctx, e, testProg("p"), testState(1), testState(1), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hang returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not honor context cancellation")
	}
	if inner.calls != 0 {
		t.Fatal("unbounded hang reached the inner platform")
	}
}

func TestBoundedHangFallsThrough(t *testing.T) {
	inner := &stubPlatform{}
	f := New(inner, Profile{Name: "h", HangProb: 1, HangFor: time.Millisecond}, 1)
	e := &scamv.Experiment{}
	m, err := f.Execute(context.Background(), e, testProg("p"), testState(1), testState(1), nil)
	if err != nil {
		t.Fatalf("bounded hang failed: %v", err)
	}
	if m.Cycles != 100 {
		t.Fatalf("bounded hang did not fall through to the real execution: cycles %d", m.Cycles)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls)
	}
}

func TestCorruptIsDistinguishable(t *testing.T) {
	inner := &stubPlatform{}
	f := New(inner, Profile{Name: "c", CorruptProb: 1}, 1)
	e := &scamv.Experiment{}
	clean, err := inner.Execute(context.Background(), e, testProg("p"), testState(1), testState(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Execute(context.Background(), e, testProg("p"), testState(1), testState(1), nil)
	if err != nil {
		t.Fatalf("corrupt execution failed: %v", err)
	}
	if !got.Distinguishable(clean, true) {
		t.Fatal("corrupted measurement is indistinguishable from the clean one")
	}
	// The original snapshot must not be mutated in place.
	if clean.Snapshot.Tags(3)[0] != 0x40 {
		t.Fatal("corrupt mutated the inner measurement's snapshot")
	}

	// The first tag of the lowest populated set is the one flipped.
	two := &micro.Snapshot{Sets: []micro.SetTags{{Set: 5, Tags: []uint64{8, 9}}, {Set: 9, Tags: []uint64{4}}}}
	flipped := corrupt(scamv.Measurement{Snapshot: two}).Snapshot
	if !reflect.DeepEqual(flipped.Sets, []micro.SetTags{{Set: 5, Tags: []uint64{9, 9}}, {Set: 9, Tags: []uint64{4}}}) {
		t.Fatalf("corrupt produced %v", flipped.Sets)
	}

	// An empty snapshot grows a phantom line instead of staying equal.
	out := corrupt(scamv.Measurement{Cycles: 5, Snapshot: &micro.Snapshot{}})
	if len(out.Snapshot.Tags(0)) == 0 {
		t.Fatal("corrupting an empty snapshot produced no phantom line")
	}
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range []string{"", "off", "light", "heavy"} {
		if _, err := Named(name); err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("Named(nope) did not fail")
	}
	h, _ := Named("heavy")
	if sum := h.TransientProb + h.PermanentProb + h.HangProb + h.CorruptProb; sum > 1 {
		t.Fatalf("heavy profile probabilities sum to %v > 1", sum)
	}
}

func TestCounts(t *testing.T) {
	inner := &stubPlatform{}
	f := New(inner, Profile{Name: "t", TransientProb: 1}, 1)
	e := &scamv.Experiment{}
	for i := 0; i < 5; i++ {
		_, _ = f.Execute(context.Background(), e, testProg("p"), testState(uint64(i)), nil, nil)
	}
	c := f.Counts()
	if c.Calls != 5 || c.Transients != 5 {
		t.Fatalf("counts = %+v, want 5 calls / 5 transients", c)
	}
}
