package micro

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"scamv/internal/arm"
	"scamv/internal/expr"
)

// State is a compiled architectural state: register values indexed by
// register number and the initial memory image as words sorted by address.
// A State is immutable once compiled, so one can be loaded any number of
// times, into any number of machines, without being parsed again; its
// pointer identity is also what Train's memo keys on.
type State struct {
	regs  [arm.NumRegs]uint64
	words []memWord // sorted by address, one word per address
	memDf uint64
}

type memWord struct{ addr, val uint64 }

// CompileState compiles a test-case state: register values by name
// ("x0".."x30") and the initial memory image (nil means every word reads 0).
// Names that do not start with 'x' — the ghost and shadow variables of the
// symbolic state — are not architectural and are skipped; an 'x' name that
// is not x0..x30 is an error.
func CompileState(regs map[string]uint64, mem *expr.MemModel) (*State, error) {
	s := &State{}
	for name, v := range regs {
		if len(name) < 2 || name[0] != 'x' {
			continue // ghost/shadow registers are not architectural
		}
		n, err := strconv.Atoi(name[1:])
		if err != nil || n < 0 || n > 30 {
			return nil, fmt.Errorf("micro: bad register name %q", name)
		}
		s.regs[n] = v
	}
	if mem != nil {
		s.memDf = mem.Default
		s.words = make([]memWord, 0, len(mem.Data))
		for a, v := range mem.Data {
			s.words = append(s.words, memWord{a, v})
		}
		slices.SortFunc(s.words, func(a, b memWord) int { return cmp.Compare(a.addr, b.addr) })
	}
	return s, nil
}

// Load installs a compiled state: the registers, and the memory image with
// every store of earlier runs discarded. The machine reads the state's
// words in place and keeps its own stores apart, so loading copies nothing.
func (m *Machine) Load(s *State) {
	m.Regs = s.regs
	m.words, m.memDf = s.words, s.memDf
	clear(m.stores)
}

// LoadState compiles and installs the architectural state of a test case
// (see CompileState and Load). On error the machine is left unchanged.
func (m *Machine) LoadState(regs map[string]uint64, mem *expr.MemModel) error {
	s, err := CompileState(regs, mem)
	if err != nil {
		return err
	}
	m.Load(s)
	return nil
}

// ReadMem returns the memory word at addr.
func (m *Machine) ReadMem(addr uint64) uint64 {
	if len(m.stores) > 0 {
		if v, ok := m.stores[addr]; ok {
			return v
		}
	}
	if i, ok := slices.BinarySearchFunc(m.words, addr, func(w memWord, a uint64) int {
		return cmp.Compare(w.addr, a)
	}); ok {
		return m.words[i].val
	}
	return m.memDf
}

// WriteMem sets the memory word at addr.
func (m *Machine) WriteMem(addr, v uint64) { m.stores[addr] = v }

// MemSnapshot copies the architectural memory image — the initial words
// installed by Load overlaid with every store executed since — as a
// concrete memory model. The differential oracle compares it against the
// symbolic executor's final memory.
func (m *Machine) MemSnapshot() *expr.MemModel {
	mm := expr.NewMemModel(m.memDf)
	for _, w := range m.words {
		mm.Set(w.addr, w.val)
	}
	for a, v := range m.stores {
		mm.Set(a, v)
	}
	return mm
}

// unload clears the architectural state: zero registers and an empty memory
// whose words read 0.
func (m *Machine) unload() {
	m.Regs = [arm.NumRegs]uint64{}
	m.words, m.memDf = nil, 0
	clear(m.stores)
}
