package micro_test

import (
	"math/rand"
	"testing"

	"scamv/internal/arm"
	"scamv/internal/gen"
	"scamv/internal/micro"
)

var snapshotSink *micro.Snapshot

// BenchmarkExecuteCold times the run sequence the simulated platform
// performs for one test case of a Template-A program: the pooled machine
// reset to cold state, four predictor-training runs from a state that
// takes the branch body, the cache cleared again, the measured run from a
// state that skips the body (so the trained predictor speculates into it),
// and the final cache snapshot under the full view.
func BenchmarkExecuteCold(b *testing.B) {
	prog := gen.TemplateA{}.Generate(rand.New(rand.NewSource(1)), 0)
	cmp := prog.Instrs[1] // cmp r1, r4: the body runs when r1 < r4
	// A state names the registers the program uses, as generated test
	// cases do.
	state := func(r1, r4 uint64) map[string]uint64 {
		regs := map[string]uint64{}
		for _, ins := range prog.Instrs {
			for _, r := range []arm.Reg{ins.Rd, ins.Rn, ins.Rm} {
				regs[r.String()] = 0x80000 + 0x40*uint64(r)
			}
		}
		regs[cmp.Rn.String()], regs[cmp.Rm.String()] = r1, r4
		return regs
	}
	train, test := state(0x40, 0x1000), state(0x2000, 0x40)
	m := micro.New(micro.DefaultConfig())
	for i := 0; i < b.N; i++ {
		m.Reset()
		for k := 0; k < 4; k++ {
			if err := m.LoadState(train, nil); err != nil {
				b.Fatal(err)
			}
			if err := m.Run(prog, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.LoadState(test, nil); err != nil {
			b.Fatal(err)
		}
		m.ResetMicro()
		if err := m.Run(prog, 0, nil); err != nil {
			b.Fatal(err)
		}
		snapshotSink = m.Cache.Snapshot(micro.FullView)
	}
	if m.TransientLoads == 0 {
		b.Fatal("the measured run did not speculate")
	}
}
