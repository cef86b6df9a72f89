package micro

import "slices"

// TrainedView is what a training sequence leaves in a machine once the
// cache is cold again: the state Train's memo records, copied, plus whether
// everything else is as ResetMicro leaves it.
type TrainedView struct {
	Clock    uint64
	RR       []int
	Draws    int
	PHT      []uint8
	Table    []uint8
	History  int
	CCA, CCB uint64
	CurPC    int
	Cold     bool
}

// Trained returns m's TrainedView.
func Trained(m *Machine) TrainedView {
	c := m.Cache
	v := TrainedView{
		Clock: c.clock,
		RR:    slices.Clone(c.rr),
		Draws: c.draws,
		CCA:   m.ccA,
		CCB:   m.ccB,
		CurPC: m.curPC,
	}
	switch bp := m.BP.(type) {
	case *BranchPredictor:
		v.PHT = append([]uint8{}, bp.pht...) // never nil: a fresh and a Reset table read alike
	case *Bimodal:
		v.Table = slices.Clone(bp.table)
	case *Gshare:
		v.Table, v.History = slices.Clone(bp.table), bp.history
	}
	v.Cold = len(c.dirty) == 0 && *m.PF == Prefetcher{cfg: m.PF.cfg} &&
		m.Cycles == 0 && m.TransientLoads == 0 && m.Mispredicts == 0 && !m.inSpec
	for i, lines := range c.sets {
		for _, l := range lines {
			v.Cold = v.Cold && l == cline{}
		}
		if c.plru != nil {
			v.Cold = v.Cold && !slices.Contains(c.plru[i].bits, true)
		}
	}
	return v
}
