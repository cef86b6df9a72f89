// Package faultinject is the chaos harness of the resilient campaign
// runtime: a Platform wrapper that injects the failure modes of a real
// board farm — transient errors (a flaky reset), permanent errors (a dead
// board), context-aware hangs (a wedged debug bridge), and corrupted
// measurements (a torn read) — on a deterministic, seed-derived schedule.
//
// Determinism is the whole point: the fault drawn for a call is a pure
// function of (experiment seed, call identity, per-identity attempt count),
// mixed through splitmix64. The identity hashes the program name and the
// executed state, so the schedule does not depend on goroutine scheduling,
// and the attempt counter advances per retry, so a "transient" fault really
// is transient. The same seed and profile therefore produce the same
// campaign Result under FailPolicy Degrade on either engine — the property
// the chaos golden test pins.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scamv"
	"scamv/internal/arm"
	"scamv/internal/core"
	"scamv/internal/micro"
	"scamv/internal/resilient"
)

// Kind is one injected fault class.
type Kind int

// Fault kinds.
const (
	None Kind = iota
	// Transient fails the call with a retryable error.
	Transient
	// Permanent fails the call with a non-retryable error.
	Permanent
	// Hang blocks until the context is cancelled (or HangFor elapses, when
	// set), modeling a wedged board; an expired HangFor falls through to a
	// real execution, modeling a slow-but-alive one.
	Hang
	// Corrupt executes for real but returns a torn measurement: the cycle
	// count and one cache tag are perturbed.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	}
	return "none"
}

// Profile is one chaos intensity setting: the marginal probability of each
// fault kind per platform call. The kinds are drawn from one uniform sample
// in the listed order, so the probabilities must sum to at most 1.
type Profile struct {
	Name          string
	TransientProb float64
	PermanentProb float64
	HangProb      float64
	CorruptProb   float64
	// HangFor bounds an injected hang; 0 hangs until the context is
	// cancelled (which requires an ExecTimeout or campaign cancellation to
	// ever finish).
	HangFor time.Duration
}

// Named returns a built-in chaos profile: "off" (no faults), "light"
// (occasional transients and corruption), or "heavy" (the aggressive
// profile of make chaos-smoke: frequent transients, some permanents,
// bounded hangs, corruption).
func Named(name string) (Profile, error) {
	switch name {
	case "off", "":
		return Profile{Name: "off"}, nil
	case "light":
		return Profile{
			Name:          "light",
			TransientProb: 0.05,
			CorruptProb:   0.02,
		}, nil
	case "heavy":
		return Profile{
			Name:          "heavy",
			TransientProb: 0.25,
			PermanentProb: 0.05,
			HangProb:      0.05,
			CorruptProb:   0.10,
			HangFor:       time.Millisecond,
		}, nil
	}
	return Profile{}, fmt.Errorf("faultinject: unknown chaos profile %q (want off, light, or heavy)", name)
}

// Counts is a snapshot of the faults a Platform has injected.
type Counts struct {
	Calls      uint64
	Transients uint64
	Permanents uint64
	Hangs      uint64
	Corrupts   uint64
}

// Platform wraps an inner scamv.Platform with seed-scheduled fault
// injection. Safe for concurrent use.
type Platform struct {
	inner scamv.Platform
	prof  Profile
	seed  uint64

	mu    sync.Mutex
	calls map[uint64]uint64 // per-identity attempt counter

	calln      atomic.Uint64
	transients atomic.Uint64
	permanents atomic.Uint64
	hangs      atomic.Uint64
	corrupts   atomic.Uint64
}

// New wraps inner (nil = scamv.SimPlatform) with the given profile, its
// schedule derived from seed. Wrap the experiment seed so -seed reproduces
// the chaos along with everything else.
func New(inner scamv.Platform, prof Profile, seed int64) *Platform {
	if inner == nil {
		inner = scamv.SimPlatform{}
	}
	return &Platform{
		inner: inner,
		prof:  prof,
		seed:  resilient.Splitmix64(uint64(seed) ^ 0xc4a05),
		calls: make(map[uint64]uint64),
	}
}

// Counts snapshots the injected-fault counters.
func (f *Platform) Counts() Counts {
	return Counts{
		Calls:      f.calln.Load(),
		Transients: f.transients.Load(),
		Permanents: f.permanents.Load(),
		Hangs:      f.hangs.Load(),
		Corrupts:   f.corrupts.Load(),
	}
}

// identity hashes the call's program and executed state: the same logical
// call — however scheduled, whichever engine — gets the same identity.
// The noise RNG is deliberately excluded (it is not comparable) and the
// training state is covered by st via the test case's determinism.
func identity(prog *arm.Program, st *core.State) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, prog.Name)
	regs := make([]string, 0, len(st.Regs))
	for r := range st.Regs {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	for _, r := range regs {
		fmt.Fprintf(h, "|%s=%x", r, st.Regs[r])
	}
	if st.Mem != nil {
		fmt.Fprintf(h, "|def=%x", st.Mem.Default)
		addrs := make([]uint64, 0, len(st.Mem.Data))
		for a := range st.Mem.Data {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(h, "|%x:%x", a, st.Mem.Data[a])
		}
	}
	return h.Sum64()
}

// draw picks the fault for this call: identity ^ per-identity attempt
// number, mixed with the schedule seed. The attempt counter makes retries
// of the same call advance through the schedule — a transient fault clears
// on a later attempt instead of repeating forever.
func (f *Platform) draw(prog *arm.Program, st *core.State) Kind {
	id := identity(prog, st)
	f.mu.Lock()
	n := f.calls[id]
	f.calls[id] = n + 1
	f.mu.Unlock()
	h := resilient.Splitmix64(f.seed ^ resilient.Splitmix64(id+n*0x9e3779b97f4a7c15))
	u := float64(h>>11) / (1 << 53) // uniform in [0, 1)
	switch {
	case u < f.prof.TransientProb:
		return Transient
	case u < f.prof.TransientProb+f.prof.PermanentProb:
		return Permanent
	case u < f.prof.TransientProb+f.prof.PermanentProb+f.prof.HangProb:
		return Hang
	case u < f.prof.TransientProb+f.prof.PermanentProb+f.prof.HangProb+f.prof.CorruptProb:
		return Corrupt
	}
	return None
}

// Execute implements scamv.Platform.
func (f *Platform) Execute(ctx context.Context, e *scamv.Experiment, prog *arm.Program, st, train *core.State, noise *rand.Rand) (scamv.Measurement, error) {
	f.calln.Add(1)
	switch f.draw(prog, st) {
	case Transient:
		f.transients.Add(1)
		return scamv.Measurement{}, resilient.MarkTransient(
			fmt.Errorf("faultinject: injected transient fault (%s)", prog.Name))
	case Permanent:
		f.permanents.Add(1)
		return scamv.Measurement{}, resilient.MarkPermanent(
			fmt.Errorf("faultinject: injected permanent fault (%s)", prog.Name))
	case Hang:
		f.hangs.Add(1)
		if f.prof.HangFor <= 0 {
			<-ctx.Done()
			return scamv.Measurement{}, ctx.Err()
		}
		t := time.NewTimer(f.prof.HangFor)
		select {
		case <-ctx.Done():
			t.Stop()
			return scamv.Measurement{}, ctx.Err()
		case <-t.C:
			// Slow but alive: fall through to the real execution.
		}
	case Corrupt:
		f.corrupts.Add(1)
		m, err := f.inner.Execute(ctx, e, prog, st, train, noise)
		if err != nil {
			return m, err
		}
		return corrupt(m), nil
	}
	return f.inner.Execute(ctx, e, prog, st, train, noise)
}

// corrupt models a torn measurement: the cycle counter's low bit flips and
// one cached tag is perturbed (or a phantom line appears in an empty cache).
// The corruption is value-deterministic — derived from the measurement
// itself — so a corrupted call is reproducible like every other fault.
func corrupt(m scamv.Measurement) scamv.Measurement {
	out := scamv.Measurement{Cycles: m.Cycles ^ 1}
	if m.Snapshot == nil {
		return out
	}
	out.Snapshot = m.Snapshot.Clone()
	sets := out.Snapshot.Sets
	// Flip the first tag of the lowest populated set (sets are in
	// ascending order).
	for i := range sets {
		if len(sets[i].Tags) > 0 {
			sets[i].Tags[0] ^= 1
			return out
		}
	}
	// Empty view: invent a phantom line in set 0, the lowest set.
	phantom := micro.SetTags{Set: 0, Tags: []uint64{0xdead}}
	if len(sets) > 0 && sets[0].Set == 0 {
		sets[0] = phantom
	} else {
		out.Snapshot.Sets = append([]micro.SetTags{phantom}, sets...)
	}
	return out
}
