// Package micro simulates the microarchitecture of the evaluation platform
// (a Cortex-A53-like in-order core) at the level of detail the paper's side
// channels require. It substitutes for the Raspberry Pi 3 boards driven from
// TrustZone in the original evaluation:
//
//   - a set-associative L1 data cache (default 128 sets × 4 ways × 64 B,
//     LRU) whose final state plays the role of the privileged cache
//     inspection used by Scam-V's platform module;
//   - a stride prefetcher that triggers after a run of equidistant loads
//     (default 3, the A53 default noted in §6.1) and stops at page
//     boundaries (the property §6.2 discovers);
//   - a PHT branch predictor with 2-bit saturating counters (§4.2.2);
//   - A53-style restricted speculation (§6.4–6.5): on a mispredicted
//     conditional branch the wrong path is executed transiently for a
//     bounded window; transient loads issue memory requests (and thus fill
//     the cache) unless their address depends on the result of an earlier
//     transient load — transient load results are not forwarded. Direct
//     unconditional branches do not speculate (no straight-line speculation
//     for direct branches, §6.5).
//
// A cycle counter stands in for the PMC, enabling the Flush+Reload attack
// demonstration of §6.4.
package micro

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"scamv/internal/arm"
	"scamv/internal/expr"
	"scamv/internal/lazyrand"
)

// Replacement selects the cache replacement policy.
type Replacement uint8

// Replacement policies. LRU is the deterministic default used by the
// validation campaigns; the real Cortex-A53 L1D uses pseudo-random
// replacement, available here for ablations (seeded, still reproducible).
// TreePLRU is the tree pseudo-LRU of wider cores (one direction bit per
// internal tree node; see plru.go), an ablation axis of the platform zoo.
const (
	LRU Replacement = iota
	RoundRobin
	PseudoRandom
	TreePLRU
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case RoundRobin:
		return "round-robin"
	case PseudoRandom:
		return "pseudo-random"
	case TreePLRU:
		return "tree-plru"
	}
	return "replacement(?)"
}

// PrefetchKind selects the data prefetcher variant. The zero value is the
// A53-style stride prefetcher; turning prefetching off entirely stays on
// the PrefetchDisabled switch so existing configurations are unchanged.
type PrefetchKind uint8

// Prefetcher variants.
const (
	// PrefetchStride triggers after PrefetchRun equidistant accesses and
	// fetches the next address in the pattern (the A53 default).
	PrefetchStride PrefetchKind = iota
	// PrefetchNextLine fetches the line after every demand access — no
	// training, fires immediately, the aggressive variant some cores pair
	// with a stride engine. It leaks adjacency rather than stride.
	PrefetchNextLine
)

func (k PrefetchKind) String() string {
	switch k {
	case PrefetchStride:
		return "stride"
	case PrefetchNextLine:
		return "next-line"
	}
	return "prefetch(?)"
}

// Config is the microarchitecture configuration.
type Config struct {
	Sets     int  // number of cache sets
	Ways     int  // cache associativity
	LineBits uint // log2(line size)
	PageBits uint // log2(page size); prefetching stops at page boundaries

	// Replacement is the cache replacement policy (default LRU).
	Replacement Replacement
	// ReplacementSeed seeds the pseudo-random policy.
	ReplacementSeed int64

	// Prefetch selects the prefetcher variant (default the stride engine).
	Prefetch PrefetchKind
	// PrefetchRun is the number of equidistant accesses needed to trigger
	// the stride prefetcher (A53 default setting: 3).
	PrefetchRun int
	// PrefetchDisabled turns the prefetcher off (ablations).
	PrefetchDisabled bool

	// Predictor selects the branch predictor machine (default the per-PC
	// PHT; see predictor.go for the zoo variants).
	Predictor PredictorKind
	// PredictorBits is log2 of the bimodal/gshare table size (default 6;
	// ignored by the PHT and the static predictor).
	PredictorBits uint

	// SpecWindow is the number of instructions executed transiently after
	// a misprediction; 0 disables speculation entirely.
	SpecWindow int
	// ForwardTransientLoads, when true, lets dependent transient loads
	// issue (a more aggressive out-of-order-like core; ablations). The
	// A53-like default is false.
	ForwardTransientLoads bool

	// Cycle costs for the simulated PMC.
	HitCycles, MissCycles, MispredictCycles uint64

	// NoiseProb is the per-run probability of one spurious cache fill
	// (interrupts, other bus masters); it produces the "inconclusive"
	// experiments of §6.1.
	NoiseProb float64

	// VarTimeMul enables an early-terminating multiplier: mul takes extra
	// cycles depending on the magnitude of the second operand (one step
	// per 16 bits of significance). This is the variable-time arithmetic
	// channel the paper uses to illustrate refinement in §3 ("observe the
	// highest bits ... for checking if the time needed for additions
	// depends on the size of the arguments").
	VarTimeMul bool
}

// MulExtraCycles is the early-termination latency model: 0 extra cycles for
// a multiplier below 2^16, up to 3 for one using the top 16 bits.
func MulExtraCycles(multiplier uint64) uint64 {
	switch {
	case multiplier < 1<<16:
		return 0
	case multiplier < 1<<32:
		return 1
	case multiplier < 1<<48:
		return 2
	default:
		return 3
	}
}

// defaultPredictorBits sizes the bimodal/gshare tables when the config
// leaves PredictorBits zero: 64 entries, small enough that realistic test
// programs alias.
const defaultPredictorBits = 6

// DefaultConfig models the Cortex-A53 of the paper's evaluation platform
// (the A53Like preset of the zoo; see presets.go for the other platforms).
func DefaultConfig() Config {
	return Config{
		Sets:             128,
		Ways:             4,
		LineBits:         6,
		PageBits:         12,
		PrefetchRun:      3,
		PredictorBits:    defaultPredictorBits,
		SpecWindow:       16,
		HitCycles:        3,
		MissCycles:       40,
		MispredictCycles: 8,
	}
}

// NoSpeculation is an explicit SpecWindow value requesting a core that never
// executes transiently. WithDefaults treats SpecWindow == 0 as "unset" and
// fills in the default window, so a deliberately non-speculating config must
// say so with this sentinel; the simulator treats any non-positive window as
// disabled.
const NoSpeculation = -1

// WithDefaults merges c with DefaultConfig field by field: zero-value fields
// take the default, set fields survive. Booleans (PrefetchDisabled,
// ForwardTransientLoads, VarTimeMul), NoiseProb, Replacement (zero is LRU,
// the default policy), ReplacementSeed, Prefetch (zero is the stride
// engine) and Predictor (zero is the PHT) pass through unchanged; use
// NoSpeculation rather than 0 to disable speculation explicitly.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.Sets == 0 {
		c.Sets = d.Sets
	}
	if c.Ways == 0 {
		c.Ways = d.Ways
	}
	if c.LineBits == 0 {
		c.LineBits = d.LineBits
	}
	if c.PageBits == 0 {
		c.PageBits = d.PageBits
	}
	if c.PrefetchRun == 0 {
		c.PrefetchRun = d.PrefetchRun
	}
	if c.PredictorBits == 0 {
		c.PredictorBits = d.PredictorBits
	}
	if c.SpecWindow == 0 {
		c.SpecWindow = d.SpecWindow
	}
	if c.HitCycles == 0 {
		c.HitCycles = d.HitCycles
	}
	if c.MissCycles == 0 {
		c.MissCycles = d.MissCycles
	}
	if c.MispredictCycles == 0 {
		c.MispredictCycles = d.MispredictCycles
	}
	return c
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

type cline struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative cache with a configurable replacement policy.
type Cache struct {
	cfg   Config
	sets  [][]cline
	clock uint64
	rr    []int      // round-robin victim pointer per set
	plru  []plruTree // tree-PLRU direction bits per set
	rng   *rand.Rand
}

// NewCache builds an empty cache.
func NewCache(cfg Config) *Cache {
	c := &Cache{cfg: cfg, sets: make([][]cline, cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]cline, cfg.Ways)
	}
	switch cfg.Replacement {
	case RoundRobin:
		c.rr = make([]int, cfg.Sets)
	case PseudoRandom:
		c.rng = lazyrand.New(cfg.ReplacementSeed)
	case TreePLRU:
		c.plru = make([]plruTree, cfg.Sets)
		for i := range c.plru {
			c.plru[i] = newPLRUTree(cfg.Ways)
		}
	}
	return c
}

// reset restores the state NewCache builds, keeping the storage: every line
// invalid, the clock and round-robin pointers at zero, the tree-PLRU bits
// cleared, and the pseudo-random stream reseeded.
func (c *Cache) reset() {
	c.FlushAll()
	c.clock = 0
	clear(c.rr)
	if c.rng != nil {
		c.rng.Seed(c.cfg.ReplacementSeed)
	}
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.cfg.LineBits
	return int(line % uint64(c.cfg.Sets)), line / uint64(c.cfg.Sets)
}

// Access looks up addr, filling on miss; it reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	c.clock++
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].used = c.clock
			if c.plru != nil {
				c.plru[set].touch(i)
			}
			return true
		}
	}
	// Miss: pick a victim way. Invalid ways are filled first under every
	// policy.
	victim := -1
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch c.cfg.Replacement {
		case RoundRobin:
			victim = c.rr[set]
			c.rr[set] = (c.rr[set] + 1) % c.cfg.Ways
		case PseudoRandom:
			victim = c.rng.Intn(c.cfg.Ways)
		case TreePLRU:
			victim = c.plru[set].victim()
		default: // LRU
			victim = 0
			for i := range lines {
				if lines[i].used < lines[victim].used {
					victim = i
				}
			}
		}
	}
	lines[victim] = cline{tag: tag, valid: true, used: c.clock}
	if c.plru != nil {
		c.plru[set].touch(victim)
	}
	return false
}

// Flush invalidates the line containing addr.
func (c *Cache) Flush(addr uint64) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			c.sets[set][i] = cline{}
		}
	}
}

// FlushAll empties the cache and clears the tree-PLRU direction bits (the
// cold state the platform module restores before every measured run).
func (c *Cache) FlushAll() {
	for _, lines := range c.sets {
		clear(lines)
	}
	for _, t := range c.plru {
		clear(t.bits)
	}
}

// Present reports whether the line containing addr is cached.
func (c *Cache) Present(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// View filters which cache sets an attacker can observe.
type View func(set int) bool

// FullView observes the whole cache (the M_ct experiments: a Flush+Reload
// attacker sharing memory can probe any set).
func FullView(int) bool { return true }

// RangeView observes sets lo..hi inclusive (the M_part experiments: the
// attacker only examines its own cache partition).
func RangeView(lo, hi int) View {
	return func(s int) bool { return lo <= s && s <= hi }
}

// Snapshot is the observable final cache state: the sorted valid tags of
// each visible set. Two runs are distinguishable iff their snapshots differ.
type Snapshot struct {
	Sets map[int][]uint64
}

// Snapshot captures the cache state through a view.
func (c *Cache) Snapshot(v View) *Snapshot {
	s := &Snapshot{Sets: make(map[int][]uint64)}
	for i, lines := range c.sets {
		if v != nil && !v(i) {
			continue
		}
		var tags []uint64
		for _, l := range lines {
			if l.valid {
				tags = append(tags, l.tag)
			}
		}
		if len(tags) > 0 {
			slices.Sort(tags)
			s.Sets[i] = tags
		}
	}
	return s
}

// Equal reports whether two snapshots are identical.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if len(s.Sets) != len(o.Sets) {
		return false
	}
	for set, tags := range s.Sets {
		ot, ok := o.Sets[set]
		if !ok || len(ot) != len(tags) {
			return false
		}
		for i := range tags {
			if tags[i] != ot[i] {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Stride prefetcher
// ---------------------------------------------------------------------------

// Prefetcher is a simple stride prefetcher: after PrefetchRun accesses with
// the same non-zero stride it issues a prefetch for the next address in the
// pattern, unless that address falls on a different page.
type Prefetcher struct {
	cfg  Config
	last uint64
	str  int64
	run  int
}

// NewPrefetcher builds a reset prefetcher.
func NewPrefetcher(cfg Config) *Prefetcher { return &Prefetcher{cfg: cfg} }

// Reset clears the training state.
func (p *Prefetcher) Reset() { p.last, p.str, p.run = 0, 0, 0 }

// OnAccess trains on a demand access and returns a prefetch target when the
// pattern triggers: the next stride under PrefetchStride, the following
// line under PrefetchNextLine. Both stop at page boundaries.
func (p *Prefetcher) OnAccess(addr uint64) (uint64, bool) {
	if p.cfg.PrefetchDisabled {
		return 0, false
	}
	if p.cfg.Prefetch == PrefetchNextLine {
		target := (addr>>p.cfg.LineBits + 1) << p.cfg.LineBits
		if target>>p.cfg.PageBits == addr>>p.cfg.PageBits {
			return target, true
		}
		return 0, false
	}
	defer func() { p.last = addr }()
	if p.run == 0 {
		p.run = 1
		return 0, false
	}
	stride := int64(addr - p.last)
	if stride != 0 && stride == p.str {
		p.run++
	} else {
		p.str = stride
		p.run = 2
		if stride == 0 {
			p.run = 1
			p.str = 0
			return 0, false
		}
	}
	if p.run >= p.cfg.PrefetchRun {
		target := addr + uint64(p.str)
		// A53 prefetching stops at page boundaries (§6.2).
		if target>>p.cfg.PageBits == addr>>p.cfg.PageBits {
			return target, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Branch predictor
// ---------------------------------------------------------------------------

// BranchPredictor is a pattern-history table of 2-bit saturating counters,
// indexed by instruction position — the PredPHT machine, and the historical
// default. The other predictor kinds live in predictor.go.
type BranchPredictor struct {
	pht map[int]uint8
}

// NewBranchPredictor builds a predictor with all counters weakly not-taken.
func NewBranchPredictor() *BranchPredictor { return &BranchPredictor{pht: make(map[int]uint8)} }

// Reset clears the table.
func (b *BranchPredictor) Reset() { clear(b.pht) }

// Predict returns the predicted direction for the branch at pc.
func (b *BranchPredictor) Predict(pc int) bool { return ctrTaken(b.pht[pc]) }

// Update trains the counter at pc with the resolved direction.
func (b *BranchPredictor) Update(pc int, taken bool) {
	b.pht[pc] = ctrUpdate(b.pht[pc], taken)
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

// Machine is the simulated core plus memory.
type Machine struct {
	Cfg   Config
	Regs  [arm.NumRegs]uint64
	mem   map[uint64]uint64
	memDf uint64

	Cache *Cache
	PF    *Prefetcher
	BP    Predictor

	// Cycles is the simulated PMC cycle counter.
	Cycles uint64
	// TransientLoads counts loads issued speculatively in the last Run.
	TransientLoads int
	// Mispredicts counts resolved conditional branches whose prediction
	// was wrong since the last ResetMicro — the per-platform predictor-
	// quality signal of the matrix campaigns.
	Mispredicts int

	ccA, ccB uint64

	trace  *Trace
	curPC  int
	inSpec bool
}

// New builds a machine with cold microarchitectural state.
func New(cfg Config) *Machine {
	return &Machine{
		Cfg:   cfg,
		mem:   make(map[uint64]uint64),
		Cache: NewCache(cfg),
		PF:    NewPrefetcher(cfg),
		BP:    NewPredictor(cfg),
	}
}

// Reset restores exactly the state New builds — cold cache, prefetcher and
// predictor, empty memory, zero registers and counters, no trace attached —
// while keeping the machine's storage, so a pooled machine can stand in for
// a fresh one.
func (m *Machine) Reset() {
	m.Regs = [arm.NumRegs]uint64{}
	clear(m.mem)
	m.memDf = 0
	m.Cache.reset()
	m.PF.Reset()
	m.BP.Reset()
	m.Cycles, m.TransientLoads, m.Mispredicts = 0, 0, 0
	m.ccA, m.ccB = 0, 0
	m.trace, m.curPC, m.inSpec = nil, 0, false
}

// LoadState installs the architectural state of a test case: register
// values by name ("x0".."x30") and the initial memory image.
func (m *Machine) LoadState(regs map[string]uint64, mem *expr.MemModel) error {
	m.Regs = [arm.NumRegs]uint64{}
	for name, v := range regs {
		if len(name) < 2 || name[0] != 'x' {
			continue // ghost/shadow registers are not architectural
		}
		n, err := strconv.Atoi(name[1:])
		if err != nil || n < 0 || n > 30 {
			return fmt.Errorf("micro: bad register name %q", name)
		}
		m.Regs[n] = v
	}
	clear(m.mem)
	m.memDf = 0
	if mem != nil {
		m.memDf = mem.Default
		for a, v := range mem.Data {
			m.mem[a] = v
		}
	}
	return nil
}

// ReadMem returns the memory word at addr.
func (m *Machine) ReadMem(addr uint64) uint64 {
	if v, ok := m.mem[addr]; ok {
		return v
	}
	return m.memDf
}

// WriteMem sets the memory word at addr.
func (m *Machine) WriteMem(addr, v uint64) { m.mem[addr] = v }

// MemSnapshot copies the architectural memory image — the initial words
// installed by LoadState overlaid with every store executed since — as a
// concrete memory model. The differential oracle compares it against the
// symbolic executor's final memory.
func (m *Machine) MemSnapshot() *expr.MemModel {
	mm := expr.NewMemModel(m.memDf)
	for a, v := range m.mem {
		mm.Set(a, v)
	}
	return mm
}

// ResetMicro restores cold cache and prefetcher state (the platform module
// clears the cache before every execution, §6.1) without touching the
// branch predictor, so that predictor training survives into the measured
// run (§5.3).
func (m *Machine) ResetMicro() {
	m.Cache.FlushAll()
	m.PF.Reset()
	m.Cycles = 0
	m.TransientLoads = 0
	m.Mispredicts = 0
}

// access performs a demand data access: cache lookup, prefetcher training,
// and prefetch issue.
func (m *Machine) access(addr uint64) {
	hit := m.Cache.Access(addr)
	if hit {
		m.Cycles += m.Cfg.HitCycles
	} else {
		m.Cycles += m.Cfg.MissCycles
	}
	m.emit(Event{Kind: EvAccess, PC: m.curPC, Addr: addr, Hit: hit, Transient: m.inSpec})
	if target, ok := m.PF.OnAccess(addr); ok {
		m.Cache.Access(target) // prefetch fill (no demand latency modelled)
		m.emit(Event{Kind: EvPrefetch, PC: m.curPC, Addr: target, Transient: m.inSpec})
	}
}

// AccessTimed performs a demand access and returns its cost in cycles; it
// is the attacker's reload primitive for Flush+Reload.
func (m *Machine) AccessTimed(addr uint64) uint64 {
	before := m.Cycles
	m.access(addr)
	return m.Cycles - before
}

func (m *Machine) reg(r arm.Reg) uint64 {
	if r == arm.XZR {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) setReg(r arm.Reg, v uint64) {
	if r != arm.XZR {
		m.Regs[r] = v
	}
}

// Run executes the program to completion (HLT or falling off the end).
// noise, when non-nil, injects spurious cache fills with probability
// Cfg.NoiseProb. maxInstrs guards against runaway programs.
func (m *Machine) Run(p *arm.Program, maxInstrs int, noise *rand.Rand) error {
	if maxInstrs <= 0 {
		maxInstrs = 10000
	}
	if noise != nil && m.Cfg.NoiseProb > 0 && noise.Float64() < m.Cfg.NoiseProb {
		// One spurious line fill at a random set, as if an interrupt
		// handler or another bus master ran concurrently.
		addr := uint64(noise.Intn(m.Cfg.Sets)) << m.Cfg.LineBits
		addr |= uint64(noise.Intn(4)+1) << (m.Cfg.LineBits + uint(16))
		m.Cache.Access(addr)
		m.emit(Event{Kind: EvNoise, PC: -1, Addr: addr})
	}
	pc := 0
	for steps := 0; steps < maxInstrs; steps++ {
		if pc < 0 || pc >= len(p.Instrs) {
			return nil // fell off the end
		}
		ins := p.Instrs[pc]
		m.curPC = pc
		m.Cycles++
		switch ins.Op {
		case arm.HLT:
			return nil
		case arm.NOP:
			pc++
		case arm.MOVZ:
			m.setReg(ins.Rd, ins.Imm)
			pc++
		case arm.MOVR:
			m.setReg(ins.Rd, m.reg(ins.Rn))
			pc++
		case arm.ADDI:
			m.setReg(ins.Rd, m.reg(ins.Rn)+ins.Imm)
			pc++
		case arm.ADDR:
			m.setReg(ins.Rd, m.reg(ins.Rn)+m.reg(ins.Rm))
			pc++
		case arm.SUBI:
			m.setReg(ins.Rd, m.reg(ins.Rn)-ins.Imm)
			pc++
		case arm.SUBR:
			m.setReg(ins.Rd, m.reg(ins.Rn)-m.reg(ins.Rm))
			pc++
		case arm.ANDI:
			m.setReg(ins.Rd, m.reg(ins.Rn)&ins.Imm)
			pc++
		case arm.ANDR:
			m.setReg(ins.Rd, m.reg(ins.Rn)&m.reg(ins.Rm))
			pc++
		case arm.ORRR:
			m.setReg(ins.Rd, m.reg(ins.Rn)|m.reg(ins.Rm))
			pc++
		case arm.EORR:
			m.setReg(ins.Rd, m.reg(ins.Rn)^m.reg(ins.Rm))
			pc++
		case arm.LSLI:
			m.setReg(ins.Rd, shl(m.reg(ins.Rn), ins.Imm))
			pc++
		case arm.LSRI:
			m.setReg(ins.Rd, shr(m.reg(ins.Rn), ins.Imm))
			pc++
		case arm.MULR:
			if m.Cfg.VarTimeMul {
				m.Cycles += MulExtraCycles(m.reg(ins.Rm))
			}
			m.setReg(ins.Rd, m.reg(ins.Rn)*m.reg(ins.Rm))
			pc++
		case arm.LDRR, arm.LDRI:
			addr := m.loadAddr(ins)
			m.access(addr)
			m.setReg(ins.Rd, m.ReadMem(addr))
			pc++
		case arm.STRR, arm.STRI:
			addr := m.loadAddr(ins)
			m.WriteMem(addr, m.reg(ins.Rd))
			pc++
		case arm.CMPR:
			m.ccA, m.ccB = m.reg(ins.Rn), m.reg(ins.Rm)
			pc++
		case arm.CMPI:
			m.ccA, m.ccB = m.reg(ins.Rn), ins.Imm
			pc++
		case arm.TSTI:
			m.ccA, m.ccB = m.reg(ins.Rn)&ins.Imm, 0
			pc++
		case arm.B:
			// Direct unconditional branch: resolved at decode on the
			// modelled core, no straight-line speculation (§6.5).
			t, ok := p.Target(ins.Label)
			if !ok {
				return fmt.Errorf("micro: unknown label %q", ins.Label)
			}
			pc = t
		case arm.BCC:
			t, ok := p.Target(ins.Label)
			if !ok {
				return fmt.Errorf("micro: unknown label %q", ins.Label)
			}
			actual := ins.Cond.Holds(m.ccA, m.ccB)
			predicted := m.BP.Predict(pc)
			m.emit(Event{Kind: EvBranch, PC: pc, Taken: actual, Predicted: predicted})
			if predicted != actual {
				m.Mispredicts++
			}
			if predicted != actual && m.Cfg.SpecWindow > 0 {
				m.Cycles += m.Cfg.MispredictCycles
				wrong := t
				if !predicted {
					wrong = pc + 1
				}
				m.emit(Event{Kind: EvSpeculate, PC: wrong, Transient: true})
				m.speculate(p, wrong)
			}
			m.BP.Update(pc, actual)
			if actual {
				pc = t
			} else {
				pc++
			}
		default:
			return fmt.Errorf("micro: cannot execute %s", ins)
		}
	}
	return fmt.Errorf("micro: %s: exceeded %d instructions", p.Name, maxInstrs)
}

func (m *Machine) loadAddr(ins arm.Instr) uint64 {
	if ins.Op == arm.LDRR || ins.Op == arm.STRR {
		return m.reg(ins.Rn) + m.reg(ins.Rm)
	}
	return m.reg(ins.Rn) + ins.Imm
}

// speculate executes the wrong path transiently: up to SpecWindow
// instructions, stopping at any further control transfer. Transient loads
// issue (filling the cache and training the prefetcher) only if their
// address does not depend on an earlier transient load's result — the
// modelled core does not forward transient load data (§6.4). Transient
// stores have no effect.
func (m *Machine) speculate(p *arm.Program, pc int) {
	m.inSpec = true
	defer func() { m.inSpec = false }()
	regs := m.Regs
	var taint [arm.NumRegs]bool
	rd := func(r arm.Reg) uint64 {
		if r == arm.XZR {
			return 0
		}
		return regs[r]
	}
	wr := func(r arm.Reg, v uint64, t bool) {
		if r != arm.XZR {
			regs[r] = v
			taint[r] = t
		}
	}
	tn := func(r arm.Reg) bool { return r != arm.XZR && taint[r] }

	for k := 0; k < m.Cfg.SpecWindow; k++ {
		if pc < 0 || pc >= len(p.Instrs) {
			return
		}
		ins := p.Instrs[pc]
		m.curPC = pc
		pc++
		switch ins.Op {
		case arm.B, arm.BCC, arm.HLT:
			return // speculation window ends at further control flow
		case arm.NOP:
		case arm.MOVZ:
			wr(ins.Rd, ins.Imm, false)
		case arm.MOVR:
			wr(ins.Rd, rd(ins.Rn), tn(ins.Rn))
		case arm.ADDI:
			wr(ins.Rd, rd(ins.Rn)+ins.Imm, tn(ins.Rn))
		case arm.ADDR:
			wr(ins.Rd, rd(ins.Rn)+rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.SUBI:
			wr(ins.Rd, rd(ins.Rn)-ins.Imm, tn(ins.Rn))
		case arm.SUBR:
			wr(ins.Rd, rd(ins.Rn)-rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.ANDI:
			wr(ins.Rd, rd(ins.Rn)&ins.Imm, tn(ins.Rn))
		case arm.ANDR:
			wr(ins.Rd, rd(ins.Rn)&rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.ORRR:
			wr(ins.Rd, rd(ins.Rn)|rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.EORR:
			wr(ins.Rd, rd(ins.Rn)^rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.LSLI:
			wr(ins.Rd, shl(rd(ins.Rn), ins.Imm), tn(ins.Rn))
		case arm.LSRI:
			wr(ins.Rd, shr(rd(ins.Rn), ins.Imm), tn(ins.Rn))
		case arm.MULR:
			wr(ins.Rd, rd(ins.Rn)*rd(ins.Rm), tn(ins.Rn) || tn(ins.Rm))
		case arm.LDRR, arm.LDRI:
			tainted := tn(ins.Rn)
			addr := rd(ins.Rn) + ins.Imm
			if ins.Op == arm.LDRR {
				tainted = tainted || tn(ins.Rm)
				addr = rd(ins.Rn) + rd(ins.Rm)
			}
			if tainted && !m.Cfg.ForwardTransientLoads {
				// Address depends on a transient load result: the core
				// cannot issue the request.
				wr(ins.Rd, 0, true)
				continue
			}
			m.access(addr)
			m.TransientLoads++
			wr(ins.Rd, m.ReadMem(addr), true)
		case arm.STRR, arm.STRI:
			// Transient stores never retire and do not touch the cache.
		case arm.CMPR, arm.CMPI, arm.TSTI:
			// Flag updates in the shadow are irrelevant: a following
			// branch ends the window.
		}
	}
}

func shl(v, s uint64) uint64 {
	if s >= 64 {
		return 0
	}
	return v << s
}

func shr(v, s uint64) uint64 {
	if s >= 64 {
		return 0
	}
	return v >> s
}
