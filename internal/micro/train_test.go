package micro_test

import (
	"math/rand"
	"reflect"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/expr"
	"scamv/internal/micro"
	"scamv/internal/oracle"
)

// trainConfigs is every preset, plus round-robin replacement (no preset's
// policy, but one with per-set state), each also shrunk to a single
// two-way cache set: there training runs evict lines, so the replacement state a
// training sequence leaves behind (LRU clock, round-robin pointers, the
// pseudo-random stream) is exercised, not just the predictor.
func trainConfigs(t *testing.T) map[string]micro.Config {
	t.Helper()
	base := map[string]micro.Config{}
	for _, name := range micro.PresetNames() {
		cfg, err := micro.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		base[name] = cfg
	}
	rr := micro.DefaultConfig()
	rr.Replacement = micro.RoundRobin
	base["a53-roundrobin"] = rr
	configs := map[string]micro.Config{}
	for name, cfg := range base {
		cfg = cfg.WithDefaults()
		cfg.NoiseProb = 0.5
		if cfg.Replacement == micro.PseudoRandom && cfg.ReplacementSeed == 0 {
			cfg.ReplacementSeed = 11
		}
		configs[name] = cfg
		cfg.Sets, cfg.Ways = 1, 2
		configs[name+"/1x2"] = cfg
	}
	return configs
}

// trainLongWay is the sequence Train stands for: runs training runs from
// the training state, then the cache cleared.
func trainLongWay(m *micro.Machine, p *arm.Program, regs map[string]uint64, mem *expr.MemModel, runs int) error {
	for i := 0; i < runs; i++ {
		if err := m.LoadState(regs, mem); err != nil {
			return err
		}
		if err := m.Run(p, 0, nil); err != nil {
			return err
		}
	}
	m.ResetMicro()
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trainCase is one random program with a training state and a measured
// state.
type trainCase struct {
	p               *arm.Program
	trainRegs, regs map[string]uint64
	trainMem, mem   *expr.MemModel
	runs            int
	train           *micro.State
	seed, sweepSeed int64
}

const conflictSrc = `
        ldr x1, [x0]
        ldr x2, [x0, #0x40]
        ldr x3, [x0, #0xc0]
        cmp x1, x2
        b.lo skip
        ldr x4, [x0, #0x1c0]
        ldr x5, [x0, #0x200]
    skip:
        hlt`

func drawTrainCase(t *testing.T, seed int64) trainCase {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// A memory window of eight lines and longer programs than the default,
	// so that training runs load from lines that conflict.
	g := oracle.DefaultGen()
	g.MemWords, g.MaxSegments = 64, 8
	c := trainCase{p: oracle.RandomProgram(r, g), runs: 1 + int(seed%4), seed: seed, sweepSeed: ^seed}
	if seed%5 == 0 {
		// Random programs seldom load from more lines than a set has ways;
		// this one does, whatever its state, under a single-set cache, with
		// strides that do not trigger the stride prefetcher.
		var err error
		if c.p, err = arm.Parse("conflict", conflictSrc); err != nil {
			t.Fatal(err)
		}
	}
	c.trainRegs, c.trainMem = oracle.RandomState(r, g)
	c.regs, c.mem = oracle.RandomState(r, g)
	var err error
	if c.train, err = micro.CompileState(c.trainRegs, c.trainMem); err != nil {
		t.Fatal(err)
	}
	return c
}

// measure runs the case's measured state on m and the conflict sweep.
func (c trainCase) measure(m *micro.Machine) observed {
	return measureCase(m, c.p, c.regs, c.mem, rand.New(rand.NewSource(c.sweepSeed)), c.seed, observed{})
}

// checkTrained compares a machine Train left behind with one trained the
// long way: the state training leaves, the architectural state Train
// clears, and then a measured run and the replacement sweep after it.
func checkTrained(t *testing.T, what string, got, want *micro.Machine, c trainCase) {
	t.Helper()
	gv, wv := micro.Trained(got), micro.Trained(want)
	if !wv.Cold || !reflect.DeepEqual(gv, wv) {
		t.Fatalf("%s: trained state\n got %+v\nwant %+v", what, gv, wv)
	}
	if got.Regs != [arm.NumRegs]uint64{} || len(got.MemSnapshot().Data) != 0 || got.ReadMem(0) != 0 {
		t.Fatalf("%s: Train left architectural state behind", what)
	}
	if g, w := c.measure(got), c.measure(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: measured run diverges:\n got %s\nwant %s", what, show(g), show(w))
	}
}

// TestTrainMemoExact checks, on every preset, that a machine restoring a
// training sequence from its memo is the machine the sequence builds when
// run: first on the call that records the memo, then — after a measured run
// has dirtied predictor, cache and flags — on the call that restores it.
func TestTrainMemoExact(t *testing.T) {
	for name, cfg := range trainConfigs(t) {
		t.Run(name, func(t *testing.T) {
			memo := micro.New(cfg)
			for seed := int64(0); seed < 60; seed++ {
				c := drawTrainCase(t, seed)
				ref := micro.New(cfg)
				refErr := errText(trainLongWay(ref, c.p, c.trainRegs, c.trainMem, c.runs))
				if err := errText(memo.Train(c.p, c.train, c.runs)); err != refErr {
					t.Fatalf("seed %d: recording Train: error %q, want %q", seed, err, refErr)
				}
				if refErr != "" {
					continue
				}
				checkTrained(t, "recorded", memo, ref, c)
				if err := memo.Train(c.p, c.train, c.runs); err != nil {
					t.Fatalf("seed %d: restoring Train: %v", seed, err)
				}
				ref = micro.New(cfg)
				if err := trainLongWay(ref, c.p, c.trainRegs, c.trainMem, c.runs); err != nil {
					t.Fatal(err)
				}
				checkTrained(t, "restored", memo, ref, c)
			}
		})
	}
}

// TestTrainMemoKey checks that the memo answers only for its own key: after
// training on one (program, state, runs), training on a different program,
// on a different state, on an equal state compiled separately, or with a
// different run count gives what a fresh machine gives.
func TestTrainMemoKey(t *testing.T) {
	for name, cfg := range trainConfigs(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				c := drawTrainCase(t, seed)
				other := drawTrainCase(t, seed+1000)
				twin, err := micro.CompileState(c.trainRegs, c.trainMem)
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range []struct {
					what  string
					first func(m *micro.Machine) error
				}{
					{"program", func(m *micro.Machine) error { return m.Train(other.p, c.train, c.runs) }},
					{"state", func(m *micro.Machine) error { return m.Train(c.p, other.train, c.runs) }},
					{"equal state", func(m *micro.Machine) error { return m.Train(c.p, twin, c.runs) }},
					{"runs", func(m *micro.Machine) error { return m.Train(c.p, c.train, c.runs+1) }},
				} {
					m, fresh := micro.New(cfg), micro.New(cfg)
					firstErr := step.first(m)
					err, freshErr := m.Train(c.p, c.train, c.runs), fresh.Train(c.p, c.train, c.runs)
					if errText(err) != errText(freshErr) {
						t.Fatalf("seed %d, after another %s: error %q, want %q", seed, step.what, errText(err), errText(freshErr))
					}
					if firstErr != nil || freshErr != nil {
						continue
					}
					checkTrained(t, "after another "+step.what, m, fresh, c)
				}
			}
		})
	}
}

// TestCompileState pins the register-name parser LoadState shares with
// CompileState: x0..x30 are loaded, any other 'x' name is rejected, and
// ghost and shadow names are skipped.
func TestCompileState(t *testing.T) {
	for _, bad := range []string{"x31", "x-1", "xq"} {
		regs := map[string]uint64{"x1": 1, bad: 2}
		if _, err := micro.CompileState(regs, nil); err == nil {
			t.Errorf("CompileState accepted %q", bad)
		}
		if err := micro.New(micro.DefaultConfig()).LoadState(regs, nil); err == nil {
			t.Errorf("LoadState accepted %q", bad)
		}
	}
	mem := expr.NewMemModel(5)
	mem.Set(0x18, 1)
	mem.Set(0x8, 2)
	mem.Set(0x10, 3)
	s, err := micro.CompileState(map[string]uint64{
		"x0": 4, "x30": 6, "x": 7, "y1": 8, "sx2": 9, "_x3": 10, "mem": 11,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	m := micro.New(micro.DefaultConfig())
	m.WriteMem(0x8, 99) // a store of an earlier run, discarded by Load
	m.Load(s)
	var want [arm.NumRegs]uint64
	want[0], want[30] = 4, 6
	if m.Regs != want {
		t.Fatalf("registers %v, want %v", m.Regs, want)
	}
	if got := m.MemSnapshot(); !reflect.DeepEqual(got, mem) {
		t.Fatalf("memory %+v, want %+v", got, mem)
	}
	for addr, v := range map[uint64]uint64{0x8: 2, 0x10: 3, 0x18: 1, 0x20: 5, 0: 5} {
		if got := m.ReadMem(addr); got != v {
			t.Fatalf("ReadMem(%#x) = %d, want %d", addr, got, v)
		}
	}
	m.WriteMem(0x10, 42)
	if m.ReadMem(0x10) != 42 || m.ReadMem(0x18) != 1 {
		t.Fatal("a store is not read back over the loaded image")
	}
	m.Load(s)
	if m.ReadMem(0x10) != 3 {
		t.Fatal("Load kept a store of the previous run")
	}
}
