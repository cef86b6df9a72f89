package micro

import (
	"math/rand"
	"slices"
	"testing"
)

// scanSnapshot is Snapshot by a scan of every set, the reference the
// dirty-list Snapshot must equal.
func scanSnapshot(c *Cache, v View) *Snapshot {
	s := &Snapshot{}
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
			s.Sets = append(s.Sets, SetTags{Set: i, Tags: tags})
		}
	}
	return s
}

// checkDirty checks the dirty list's invariant: it names each set at most
// once, inDirty marks exactly the listed sets, and every other set holds
// only zero lines and clear tree-PLRU bits.
func checkDirty(t *testing.T, c *Cache, step int) {
	t.Helper()
	listed := make([]bool, len(c.sets))
	for _, set := range c.dirty {
		if listed[set] {
			t.Fatalf("step %d: set %d listed twice in %v", step, set, c.dirty)
		}
		listed[set] = true
	}
	for set, lines := range c.sets {
		if c.inDirty[set] != listed[set] {
			t.Fatalf("step %d: inDirty[%d] = %v, listed %v", step, set, c.inDirty[set], listed[set])
		}
		if listed[set] {
			continue
		}
		for w, l := range lines {
			if l != (cline{}) {
				t.Fatalf("step %d: unlisted set %d way %d holds %+v", step, set, w, l)
			}
		}
		if c.plru != nil && slices.Contains(c.plru[set].bits, true) {
			t.Fatalf("step %d: unlisted set %d has PLRU bits %v", step, set, c.plru[set].bits)
		}
	}
}

// TestDirtySets drives every replacement policy through random accesses,
// single-line flushes, FlushAll and reset, checking after each operation
// the dirty list's invariant and that Snapshot under the full view and
// under a set range equals a scan of every set.
func TestDirtySets(t *testing.T) {
	for _, r := range []Replacement{LRU, RoundRobin, PseudoRandom, TreePLRU} {
		for _, ways := range []int{3, 4} {
			cfg := DefaultConfig()
			cfg.Sets, cfg.Ways, cfg.Replacement, cfg.ReplacementSeed = 16, ways, r, 5
			c := NewCache(cfg)
			rng := rand.New(rand.NewSource(int64(r)*10 + int64(ways)))
			// Lines of a few tags in every set: fills, hits and evictions.
			addr := func() uint64 { return uint64(rng.Intn(16*6)) << cfg.LineBits }
			views := []View{FullView, RangeView(3, 9)}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 80:
					c.Access(addr())
				case op < 94:
					c.Flush(addr())
				case op < 98:
					c.FlushAll()
				default:
					c.reset()
				}
				checkDirty(t, c, step)
				for vi, v := range views {
					if got, want := c.Snapshot(v), scanSnapshot(c, v); !got.Equal(want) {
						t.Fatalf("%v/%d ways step %d view %d: snapshot %v, scan %v", r, ways, step, vi, got.Sets, want.Sets)
					}
				}
			}
		}
	}
}
