package micro

import "scamv/internal/arm"

// trainKey names one predictor-training sequence on a machine. Programs and
// compiled states are compared by pointer: the memo holds both pointers, so
// an address cannot be reused for other contents while the key lives.
type trainKey struct {
	prog  *arm.Program
	state *State
	runs  int
}

// trainMemo records what a training sequence leaves behind once the cold
// cache is restored for the measured run. Everything else a machine holds is
// either reset by Reset, ResetMicro and the measured state's Load, or not
// touched by a run at all (tree-PLRU bits are cleared with the lines that
// set them).
type trainMemo struct {
	key trainKey // zero until the first recording; no call has the zero key

	clock uint64 // cache LRU clock
	rr    []int  // round-robin victim pointers
	draws int    // pseudo-random replacement draws

	pht     []uint8 // BranchPredictor counters
	table   []uint8 // Bimodal / Gshare counters
	history int     // Gshare global history

	ccA, ccB uint64
	curPC    int
}

// Train resets the machine and trains its branch predictor on a program, as
// the platform module does before a measured run (§5.3): the result is the
// machine that Reset, runs × (Load(train), Run(p, 0, nil)) and ResetMicro
// produce, with the architectural state then cleared (zero registers, empty
// memory), ready for the measured state's Load. A nil train or runs ≤ 0 is
// Reset alone.
//
// The machine remembers the last sequence it ran and, asked for the same
// (program, compiled state, runs) again, restores the recorded outcome
// instead of simulating the runs: training runs without noise, so its
// outcome is a function of that key and the machine's Cfg alone. Programs
// must not be modified while a machine may hold them, nor a machine's Cfg
// and BP after New.
func (m *Machine) Train(p *arm.Program, train *State, runs int) error {
	m.Reset()
	if train == nil || runs <= 0 {
		return nil
	}
	key := trainKey{p, train, runs}
	if m.memo.key == key {
		m.memo.restore(m)
		return nil
	}
	for i := 0; i < runs; i++ {
		m.Load(train)
		if err := m.Run(p, 0, nil); err != nil {
			return err
		}
	}
	m.ResetMicro()
	m.unload()
	m.memo.record(m, key)
	return nil
}

// record saves the trained machine's surviving state under key.
func (t *trainMemo) record(m *Machine, key trainKey) {
	c := m.Cache
	t.key = key
	t.clock, t.draws = c.clock, c.draws
	t.rr = append(t.rr[:0], c.rr...)
	switch bp := m.BP.(type) {
	case *BranchPredictor:
		t.pht = append(t.pht[:0], bp.pht...)
	case *Bimodal:
		t.table = append(t.table[:0], bp.table...)
	case *Gshare:
		t.table = append(t.table[:0], bp.table...)
		t.history = bp.history
	}
	t.ccA, t.ccB, t.curPC = m.ccA, m.ccB, m.curPC
}

// restore installs the recorded state on a machine just Reset.
func (t *trainMemo) restore(m *Machine) {
	c := m.Cache
	c.clock = t.clock
	copy(c.rr, t.rr)
	for i := 0; i < t.draws; i++ {
		c.rng.Intn(c.cfg.Ways)
	}
	c.draws = t.draws
	switch bp := m.BP.(type) {
	case *BranchPredictor:
		bp.pht = append(bp.pht[:0], t.pht...)
	case *Bimodal:
		copy(bp.table, t.table)
	case *Gshare:
		copy(bp.table, t.table)
		bp.history = t.history
	}
	m.ccA, m.ccB, m.curPC = t.ccA, t.ccB, t.curPC
}
