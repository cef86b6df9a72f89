package micro_test

import (
	"math/rand"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/expr"
	"scamv/internal/gen"
	"scamv/internal/micro"
)

var snapshotSink *micro.Snapshot

// templateACase is a test case of a generated Template-A program, as the
// campaigns generate them: a training state that takes the branch body, and
// two measured states that skip it (so the trained predictor speculates
// into it) and differ in the word the first load reads. Every state names
// the registers the program uses and carries a memory image.
func templateACase() (prog *arm.Program, train, s1, s2 testState) {
	prog = gen.TemplateA{}.Generate(rand.New(rand.NewSource(1)), 0)
	ld, cmp := prog.Instrs[0], prog.Instrs[1] // ldr r2, [r0, r1]; cmp r1, r4: the body runs when r1 < r4
	state := func(r1, r4, loaded uint64) testState {
		regs := map[string]uint64{}
		for _, ins := range prog.Instrs {
			for _, r := range []arm.Reg{ins.Rd, ins.Rn, ins.Rm} {
				regs[r.String()] = 0x80000 + 0x40*uint64(r)
			}
		}
		regs[cmp.Rn.String()], regs[cmp.Rm.String()] = r1, r4
		mem := expr.NewMemModel(0)
		for i := uint64(0); i < 8; i++ {
			mem.Set(0x90000+8*i, i)
		}
		mem.Set(regs[ld.Rn.String()]+regs[ld.Rm.String()], loaded)
		return testState{regs, mem}
	}
	return prog, state(0x40, 0x1000, 0x100), state(0x2000, 0x40, 0x200), state(0x2000, 0x40, 0x1200)
}

type testState struct {
	regs map[string]uint64
	mem  *expr.MemModel
}

func (s testState) compile(b *testing.B) *micro.State {
	c, err := micro.CompileState(s.regs, s.mem)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// measure performs one measured run the way the simulated platform does:
// training, the measured state loaded, the cache cleared, the run, and the
// final cache snapshot under the full view.
func measure(b *testing.B, m *micro.Machine, prog *arm.Program, train, st *micro.State) {
	if err := m.Train(prog, train, 4); err != nil {
		b.Fatal(err)
	}
	m.Load(st)
	m.ResetMicro()
	if err := m.Run(prog, 0, nil); err != nil {
		b.Fatal(err)
	}
	snapshotSink = m.Cache.Snapshot(micro.FullView)
}

// BenchmarkExecuteCold times one call of the simulated platform that
// trains from scratch: the machine reset to cold state, four
// predictor-training runs, the cache cleared again, the measured run and its
// snapshot. Two compiled training states with equal contents alternate, so
// every call misses the training memo. The states carry no memory image.
func BenchmarkExecuteCold(b *testing.B) {
	prog, train, s1, _ := templateACase()
	train.mem, s1.mem = nil, nil
	trains := [2]*micro.State{train.compile(b), train.compile(b)}
	st := s1.compile(b)
	m := micro.New(micro.DefaultConfig())
	for i := 0; i < b.N; i++ {
		measure(b, m, prog, trains[i%2], st)
	}
	if m.TransientLoads == 0 {
		b.Fatal("the measured run did not speculate")
	}
}

// BenchmarkExecuteTestCase times one whole test case on the simulated
// platform: its three states compiled, then Repeats (10) × 2 measured
// calls, of which the first trains the machine and the others restore the
// training memo.
func BenchmarkExecuteTestCase(b *testing.B) {
	prog, train, s1, s2 := templateACase()
	m := micro.New(micro.DefaultConfig())
	for i := 0; i < b.N; i++ {
		// A new test case's states compile to new pointers, so its first
		// call misses the memo.
		t, c1, c2 := train.compile(b), s1.compile(b), s2.compile(b)
		for rep := 0; rep < 10; rep++ {
			measure(b, m, prog, t, c1)
			measure(b, m, prog, t, c2)
		}
	}
	if m.TransientLoads == 0 {
		b.Fatal("the measured run did not speculate")
	}
}
