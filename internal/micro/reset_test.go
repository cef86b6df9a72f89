package micro_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/expr"
	"scamv/internal/lazyrand"
	"scamv/internal/micro"
	"scamv/internal/oracle"
)

// observed is everything a test case exposes: the state a machine starts
// from, the final cache, the counters, the architectural state, and the
// outcome of a conflict-heavy access sweep that
// exercises the replacement policy's hidden state (LRU clock, round-robin
// pointers, tree-PLRU bits, the pseudo-random stream).
type observed struct {
	Fresh        *expr.MemModel
	FreshRegs    [arm.NumRegs]uint64
	Direct       *micro.Snapshot
	DirectCycles uint64

	Snapshot       *micro.Snapshot
	Cycles         uint64
	Mispredicts    int
	TransientLoads int
	Regs           [arm.NumRegs]uint64
	Mem            map[uint64]uint64
	Sweep          []uint64
	Err            string
}

// runCase runs a program once on the machine as it is, then executes a
// test case the way the simulated platform does — predictor training runs,
// then a cold-cache measured run with noise — and finally sweeps a single
// cache set with more tags than it has ways.
func runCase(m *micro.Machine, r *rand.Rand, noiseSeed int64) observed {
	gen := oracle.DefaultGen()
	p := oracle.RandomProgram(r, gen)
	trainRegs, trainMem := oracle.RandomState(r, gen)
	regs, mem := oracle.RandomState(r, gen)
	var o observed
	fail := func(err error) observed { o.Err = err.Error(); return o }
	// A first run straight out of New/Reset, before anything else clears
	// state: it sees the memory, prefetcher and cache exactly as left.
	o.Fresh, o.FreshRegs = m.MemSnapshot(), m.Regs
	if err := m.LoadState(regs, nil); err != nil {
		return fail(err)
	}
	if err := m.Run(p, 500, nil); err != nil {
		return fail(err)
	}
	o.Direct, o.DirectCycles = m.Cache.Snapshot(micro.FullView), m.Cycles
	for i := 0; i < 2; i++ {
		if err := m.LoadState(trainRegs, trainMem); err != nil {
			return fail(err)
		}
		if err := m.Run(p, 500, nil); err != nil {
			return fail(err)
		}
	}
	return measureCase(m, p, regs, mem, r, noiseSeed, o)
}

// measureCase completes o with a cold-cache measured run of the state
// (regs, mem) with noise, as the simulated platform runs it after training,
// and the conflict sweep, whose tags r draws.
func measureCase(m *micro.Machine, p *arm.Program, regs map[string]uint64, mem *expr.MemModel, r *rand.Rand, noiseSeed int64, o observed) observed {
	fail := func(err error) observed { o.Err = err.Error(); return o }
	if err := m.LoadState(regs, mem); err != nil {
		return fail(err)
	}
	m.ResetMicro()
	if err := m.Run(p, 500, lazyrand.New(noiseSeed)); err != nil {
		return fail(err)
	}
	o.Snapshot = m.Cache.Snapshot(micro.FullView)
	o.Cycles, o.Mispredicts, o.TransientLoads = m.Cycles, m.Mispredicts, m.TransientLoads
	o.Regs = m.Regs
	o.Mem = m.MemSnapshot().Data
	stride := uint64(m.Cfg.Sets) << m.Cfg.LineBits
	for i := 0; i < 4*m.Cfg.Ways; i++ {
		tag := uint64(r.Intn(2*m.Cfg.Ways + 1))
		o.Sweep = append(o.Sweep, m.AccessTimed(0x40000+tag*stride))
	}
	return o
}

// TestResetMatchesNew is the machine-reuse invariant the platform's machine
// pool relies on: on every preset, a machine Reset after an unrelated dirty
// run behaves exactly like a freshly built one.
func TestResetMatchesNew(t *testing.T) {
	configs := map[string]micro.Config{}
	for _, name := range micro.PresetNames() {
		cfg, err := micro.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		configs[name] = cfg
	}
	// Round-robin replacement is no preset's policy but keeps per-set state.
	rr := micro.DefaultConfig()
	rr.Replacement = micro.RoundRobin
	configs["a53-roundrobin"] = rr
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			cfg = cfg.WithDefaults()
			cfg.NoiseProb = 0.5
			if cfg.Replacement == micro.PseudoRandom && cfg.ReplacementSeed == 0 {
				cfg.ReplacementSeed = 11
			}
			reused := micro.New(cfg)
			for seed := int64(0); seed < 60; seed++ {
				// Dirty the reused machine with an unrelated case, a trace
				// attached, and uncleared state on the way out.
				tr := &micro.Trace{}
				reused.Attach(tr)
				runCase(reused, rand.New(rand.NewSource(^seed)), seed+1000)
				if err := reused.LoadState(nil, expr.NewMemModel(uint64(seed)+1)); err != nil {
					t.Fatal(err)
				}
				reused.Reset()
				traced := len(tr.Events)

				want := runCase(micro.New(cfg), rand.New(rand.NewSource(seed)), seed)
				got := runCase(reused, rand.New(rand.NewSource(seed)), seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: reset machine diverges from a fresh one:\n got %s\nwant %s",
						seed, show(got), show(want))
				}
				if len(tr.Events) != traced {
					t.Fatalf("seed %d: Reset left the trace attached", seed)
				}
			}
		})
	}
}

func show(o observed) string {
	var sets []micro.SetTags
	if o.Snapshot != nil {
		sets = o.Snapshot.Sets
	}
	return fmt.Sprintf("cache=%v cycles=%d mispredicts=%d transient=%d sweep=%v err=%q",
		sets, o.Cycles, o.Mispredicts, o.TransientLoads, o.Sweep, o.Err)
}
