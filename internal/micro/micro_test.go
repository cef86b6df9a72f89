package micro

import (
	"math/rand"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/expr"
)

func newM() *Machine { return New(DefaultConfig()) }

func TestCacheBasics(t *testing.T) {
	c := NewCache(DefaultConfig())
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1038) {
		t.Error("same line should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
	c.Flush(0x1000)
	if c.Access(0x1000) {
		t.Error("flushed line should miss")
	}
}

func TestCacheLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 2
	c := NewCache(cfg)
	// Three lines mapping to the same set (stride = sets * linesize).
	s := uint64(cfg.Sets) << cfg.LineBits
	c.Access(0)     // A
	c.Access(s)     // B
	c.Access(0)     // A again (B is now LRU)
	c.Access(2 * s) // C evicts B
	if !c.Present(0) {
		t.Error("A should survive")
	}
	if c.Present(s) {
		t.Error("B should be evicted")
	}
	if !c.Present(2 * s) {
		t.Error("C should be present")
	}
}

func TestSnapshotViews(t *testing.T) {
	c := NewCache(DefaultConfig())
	c.Access(5 << 6)  // set 5
	c.Access(70 << 6) // set 70
	full := c.Snapshot(FullView)
	if len(full.Sets) != 2 {
		t.Fatalf("full view: %d sets", len(full.Sets))
	}
	ar := c.Snapshot(RangeView(61, 127))
	if len(ar.Sets) != 1 {
		t.Fatalf("AR view: %d sets", len(ar.Sets))
	}
	if ar.Tags(70) == nil {
		t.Error("set 70 should be visible in AR view")
	}
	// Equality.
	if !full.Equal(c.Snapshot(FullView)) {
		t.Error("snapshot should equal itself")
	}
	c.Access(6 << 6)
	if full.Equal(c.Snapshot(FullView)) {
		t.Error("snapshots should differ after a fill")
	}
}

func TestPrefetcherTriggersOnStride(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPrefetcher(cfg)
	if _, ok := p.OnAccess(0x0); ok {
		t.Error("no prefetch on first access")
	}
	if _, ok := p.OnAccess(0x40); ok {
		t.Error("no prefetch on second access")
	}
	target, ok := p.OnAccess(0x80)
	if !ok || target != 0xc0 {
		t.Fatalf("third equidistant access should prefetch 0xc0, got %#x/%v", target, ok)
	}
	target, ok = p.OnAccess(0xc0)
	if !ok || target != 0x100 {
		t.Errorf("run continues: got %#x/%v", target, ok)
	}
}

func TestPrefetcherIrregularPattern(t *testing.T) {
	p := NewPrefetcher(DefaultConfig())
	p.OnAccess(0x0)
	p.OnAccess(0x40)
	if _, ok := p.OnAccess(0x100); ok {
		t.Error("stride change must reset the run")
	}
	// 0x40, 0x100, 0x1c0 are three equidistant accesses of the new stride.
	if target, ok := p.OnAccess(0x1c0); !ok || target != 0x280 {
		t.Errorf("new stride re-triggers after three accesses: %#x/%v", target, ok)
	}
}

func TestPrefetcherStopsAtPageBoundary(t *testing.T) {
	p := NewPrefetcher(DefaultConfig())
	// Stride ending just below a 4 KiB page boundary: target crosses it.
	p.OnAccess(0xf80 - 0x80)
	p.OnAccess(0xf80 - 0x40)
	if _, ok := p.OnAccess(0xf80); ok {
		t.Skip("target 0xfc0 still on page") // defensive; not expected
	}
	p2 := NewPrefetcher(DefaultConfig())
	p2.OnAccess(0xf40)
	p2.OnAccess(0xf80)
	if _, ok := p2.OnAccess(0xfc0); ok {
		t.Error("prefetch across the page boundary must be suppressed")
	}
}

func TestBranchPredictorTraining(t *testing.T) {
	b := NewBranchPredictor()
	if b.Predict(0) {
		t.Error("cold predictor should predict not-taken")
	}
	b.Update(0, true)
	b.Update(0, true)
	if !b.Predict(0) {
		t.Error("two taken updates should flip the prediction")
	}
	b.Update(0, false)
	b.Update(0, false)
	if b.Predict(0) {
		t.Error("two not-taken updates should flip it back")
	}
}

func runProg(t *testing.T, m *Machine, src string, regs map[string]uint64, mem map[uint64]uint64) *arm.Program {
	t.Helper()
	p, err := arm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	mm := expr.NewMemModel(0)
	for a, v := range mem {
		mm.Set(a, v)
	}
	if err := m.LoadState(regs, mm); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMachineArithmetic(t *testing.T) {
	m := newM()
	runProg(t, m, `
        movz x0, #10
        add x1, x0, #5
        sub x2, x1, x0
        lsl x3, x2, #4
        and x4, x3, #0xf0
        orr x5, x4, x0
        eor x6, x5, x5
        mul x7, x0, x1
        hlt`, nil, nil)
	want := map[arm.Reg]uint64{1: 15, 2: 5, 3: 80, 4: 80, 5: 90, 6: 0, 7: 150}
	for r, w := range want {
		if m.Regs[r] != w {
			t.Errorf("x%d = %d, want %d", r, m.Regs[r], w)
		}
	}
}

func TestMachineLoadsFillCache(t *testing.T) {
	m := newM()
	runProg(t, m, "ldr x1, [x0]\nhlt", map[string]uint64{"x0": 0x2000}, map[uint64]uint64{0x2000: 77})
	if m.Regs[1] != 77 {
		t.Errorf("loaded %d", m.Regs[1])
	}
	if !m.Cache.Present(0x2000) {
		t.Error("load should fill the cache")
	}
}

func TestMachineStrideTriggersPrefetch(t *testing.T) {
	m := newM()
	runProg(t, m, `
        ldr x1, [x0]
        ldr x2, [x0, #0x40]
        ldr x3, [x0, #0x80]
        hlt`, map[string]uint64{"x0": 0}, nil)
	if !m.Cache.Present(0xc0) {
		t.Error("prefetcher should have filled the next line")
	}
	// Same stride but crossing a page boundary: no prefetch.
	m2 := newM()
	runProg(t, m2, `
        ldr x1, [x0]
        ldr x2, [x0, #0x40]
        ldr x3, [x0, #0x80]
        hlt`, map[string]uint64{"x0": 0xf40}, nil)
	if m2.Cache.Present(0x1000) {
		t.Error("prefetch must stop at the page boundary")
	}
}

func TestBranchCorrectPredictionNoSpeculation(t *testing.T) {
	// Cold predictor predicts not-taken; the program's branch is not taken,
	// so there is no misprediction and the body is never touched.
	m := newM()
	runProg(t, m, `
        cmp x0, x1
        b.lo body
        b end
    body:
        ldr x2, [x5]
    end:
        hlt`, map[string]uint64{"x0": 5, "x1": 3, "x5": 0x3000}, nil)
	if m.Cache.Present(0x3000) {
		t.Error("correctly predicted branch must not touch the body load")
	}
	if m.TransientLoads != 0 {
		t.Error("no transient loads expected")
	}
}

// trainMispredict trains the predictor at branch pc so the next execution
// with opposite direction mispredicts.
func trainTaken(m *Machine, p *arm.Program, regs map[string]uint64, times int) error {
	mm := expr.NewMemModel(0)
	for i := 0; i < times; i++ {
		if err := m.LoadState(regs, mm); err != nil {
			return err
		}
		if err := m.Run(p, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

const siscloakSrc = `
        ldr x2, [x5, x0]
        cmp x0, x1
        b.hs end
        ldr x4, [x7, x2]
    end:
        hlt`

func TestSiSCloakSingleSpeculativeLoad(t *testing.T) {
	// SiSCloak (§6.4): x2 is loaded architecturally BEFORE the branch; on a
	// mispredicted taken->not-taken transition the body load [x7 + x2]
	// issues transiently, leaking mem[x5+x0] through the cache.
	p, err := arm.Parse("siscloak", siscloakSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	// Train: x0 < x1 (branch b.hs not taken... note b.hs skips the body).
	// Body executes when x0 < x1. Train with in-bounds inputs.
	train := map[string]uint64{"x0": 0, "x1": 8, "x5": 0x10000, "x7": 0x20000}
	if err := trainTaken(m, p, train, 4); err != nil {
		t.Fatal(err)
	}
	// Now attack: x0 >= x1 (body architecturally skipped) but the predictor
	// expects the body to run.
	secret := uint64(0x40 * 33) // lands in set 33
	mm := expr.NewMemModel(0)
	mm.Set(0x10000+16, secret)
	if err := m.LoadState(map[string]uint64{"x0": 16, "x1": 8, "x5": 0x10000, "x7": 0x20000}, mm); err != nil {
		t.Fatal(err)
	}
	m.ResetMicro()
	if err := m.Run(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if m.TransientLoads != 1 {
		t.Fatalf("expected exactly one transient load, got %d", m.TransientLoads)
	}
	if !m.Cache.Present(0x20000 + secret) {
		t.Error("the transient load must leave a cache footprint at B[secret]")
	}
}

const spectreSrc = `
        cmp x0, x1
        b.hs end
        ldr x2, [x5, x0]
        ldr x4, [x7, x2]
    end:
        hlt`

func TestSpectrePHTBlockedByTaint(t *testing.T) {
	// Classic Spectre-PHT: BOTH loads are transient and the second depends
	// on the first. The modelled A53 does not forward transient load
	// results, so only the first load issues — Cortex-A53 is not vulnerable
	// to Spectre-PHT (§6.5), matching ARM's claim.
	p, err := arm.Parse("spectre", spectreSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	train := map[string]uint64{"x0": 0, "x1": 8, "x5": 0x10000, "x7": 0x20000}
	if err := trainTaken(m, p, train, 4); err != nil {
		t.Fatal(err)
	}
	secret := uint64(0x40 * 33)
	mm := expr.NewMemModel(0)
	mm.Set(0x10000+16, secret)
	if err := m.LoadState(map[string]uint64{"x0": 16, "x1": 8, "x5": 0x10000, "x7": 0x20000}, mm); err != nil {
		t.Fatal(err)
	}
	m.ResetMicro()
	if err := m.Run(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if m.TransientLoads != 1 {
		t.Fatalf("only the first (independent) load should issue, got %d", m.TransientLoads)
	}
	if !m.Cache.Present(0x10000 + 16) {
		t.Error("first transient load should fill the cache")
	}
	if m.Cache.Present(0x20000 + secret) {
		t.Error("dependent second load must NOT issue (no transient forwarding)")
	}
	// Ablation: an aggressive forwarding core leaks.
	cfg := DefaultConfig()
	cfg.ForwardTransientLoads = true
	m2 := New(cfg)
	if err := trainTaken(m2, p, train, 4); err != nil {
		t.Fatal(err)
	}
	mm2 := expr.NewMemModel(0)
	mm2.Set(0x10000+16, secret)
	if err := m2.LoadState(map[string]uint64{"x0": 16, "x1": 8, "x5": 0x10000, "x7": 0x20000}, mm2); err != nil {
		t.Fatal(err)
	}
	m2.ResetMicro()
	if err := m2.Run(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !m2.Cache.Present(0x20000 + secret) {
		t.Error("forwarding core should be Spectre-PHT vulnerable")
	}
}

func TestTwoIndependentTransientLoads(t *testing.T) {
	// §6.5 Template-B finding: two causally independent loads in the
	// mispredicted branch BOTH issue.
	src := `
        cmp x0, x1
        b.hs end
        ldr x2, [x5]
        ldr x3, [x7]
    end:
        hlt`
	p, err := arm.Parse("indep", src)
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	regs := map[string]uint64{"x0": 0, "x1": 8, "x5": 0x10000, "x7": 0x20000}
	if err := trainTaken(m, p, regs, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadState(map[string]uint64{"x0": 16, "x1": 8, "x5": 0x10000, "x7": 0x20000}, expr.NewMemModel(0)); err != nil {
		t.Fatal(err)
	}
	m.ResetMicro()
	if err := m.Run(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if m.TransientLoads != 2 {
		t.Fatalf("both independent loads should issue, got %d", m.TransientLoads)
	}
}

func TestNoStraightLineSpeculation(t *testing.T) {
	m := newM()
	runProg(t, m, `
        b end
        ldr x1, [x5]
    end:
        hlt`, map[string]uint64{"x5": 0x4000}, nil)
	if m.Cache.Present(0x4000) || m.TransientLoads != 0 {
		t.Error("direct unconditional branches must not speculate")
	}
}

func TestFlushReloadTiming(t *testing.T) {
	m := newM()
	probe := uint64(0x8000)
	m.Cache.FlushAll()
	miss := m.AccessTimed(probe)
	hit := m.AccessTimed(probe)
	if miss <= hit {
		t.Errorf("miss (%d cycles) should cost more than hit (%d)", miss, hit)
	}
}

func TestNoiseInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseProb = 1.0
	m := New(cfg)
	p, _ := arm.Parse("nop", "hlt")
	if err := m.LoadState(nil, expr.NewMemModel(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p, 0, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if len(m.Cache.Snapshot(FullView).Sets) == 0 {
		t.Error("noise should have filled a line")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	run := func(seed int64) *Snapshot {
		cfg := DefaultConfig()
		cfg.NoiseProb = 0.5
		m := New(cfg)
		p, _ := arm.Parse("t", "ldr x1, [x0]\nhlt")
		m.LoadState(map[string]uint64{"x0": 0x1234}, expr.NewMemModel(0))
		m.Run(p, 0, rand.New(rand.NewSource(seed)))
		return m.Cache.Snapshot(FullView)
	}
	if !run(7).Equal(run(7)) {
		t.Error("same seed must reproduce the same snapshot")
	}
}

func TestMulExtraCycles(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		want uint64
	}{{0, 0}, {1<<16 - 1, 0}, {1 << 16, 1}, {1 << 32, 2}, {1 << 48, 3}} {
		if got := MulExtraCycles(tc.v); got != tc.want {
			t.Errorf("MulExtraCycles(%#x) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestVarTimeMulChangesCycles(t *testing.T) {
	run := func(op uint64, varTime bool) uint64 {
		cfg := DefaultConfig()
		cfg.VarTimeMul = varTime
		m := New(cfg)
		p, _ := arm.Parse("m", "mul x2, x0, x1\nhlt")
		m.LoadState(map[string]uint64{"x0": 3, "x1": op}, expr.NewMemModel(0))
		m.Run(p, 0, nil)
		return m.Cycles
	}
	small := run(5, true)
	big := run(1<<40, true)
	if big <= small {
		t.Errorf("large multiplier should take longer: %d vs %d", big, small)
	}
	// With the constant-time multiplier the cycles are identical.
	if run(5, false) != run(1<<40, false) {
		t.Error("constant-time multiplier must not depend on operands")
	}
}

func TestReplacementPolicies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 2
	s := uint64(cfg.Sets) << cfg.LineBits // set-conflict stride

	// Round-robin: victims cycle 0,1,0,1 regardless of recency.
	cfg.Replacement = RoundRobin
	c := NewCache(cfg)
	c.Access(0)     // way 0
	c.Access(s)     // way 1
	c.Access(0)     // hit (recency irrelevant)
	c.Access(2 * s) // evicts way 0 (= line A) under round-robin
	if c.Present(0) {
		t.Error("round-robin should evict A despite its recent use")
	}
	if !c.Present(s) || !c.Present(2*s) {
		t.Error("round-robin kept the wrong lines")
	}

	// Pseudo-random: deterministic per seed.
	cfg.Replacement = PseudoRandom
	cfg.ReplacementSeed = 42
	run := func() bool {
		c := NewCache(cfg)
		c.Access(0)
		c.Access(s)
		c.Access(2 * s)
		return c.Present(0)
	}
	if run() != run() {
		t.Error("pseudo-random policy must be reproducible per seed")
	}

	// All policies respect associativity.
	for _, pol := range []Replacement{LRU, RoundRobin, PseudoRandom} {
		cfg.Replacement = pol
		c := NewCache(cfg)
		for i := uint64(0); i < 10; i++ {
			c.Access(i * s)
		}
		count := 0
		for i := uint64(0); i < 10; i++ {
			if c.Present(i * s) {
				count++
			}
		}
		if count != cfg.Ways {
			t.Errorf("%v: %d resident lines in a %d-way set", pol, count, cfg.Ways)
		}
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "lru" || RoundRobin.String() != "round-robin" || PseudoRandom.String() != "pseudo-random" {
		t.Error("replacement names")
	}
}

// TestLoadStateNilMemory: a nil memory image installs registers and an
// empty, zero-default memory — also over a previously loaded image.
func TestLoadStateNilMemory(t *testing.T) {
	m := newM()
	mem := expr.NewMemModel(5)
	mem.Set(0x100, 9)
	if err := m.LoadState(nil, mem); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadState(map[string]uint64{"x3": 42}, nil); err != nil {
		t.Fatal(err)
	}
	if m.Regs[3] != 42 {
		t.Errorf("x3 = %d, want 42", m.Regs[3])
	}
	if got := m.ReadMem(0x100); got != 0 {
		t.Errorf("memory survived a nil image: ReadMem(0x100) = %d", got)
	}
	if got := len(m.MemSnapshot().Data); got != 0 {
		t.Errorf("nil image left %d memory words", got)
	}
}
