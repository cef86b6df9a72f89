package micro

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oneSetConfig is a 1-set cache: every access lands in the same set, so
// replacement decisions are fully exposed.
func oneSetConfig(ways int, r Replacement) Config {
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.Ways = ways
	cfg.Replacement = r
	return cfg
}

// lineAddr maps a small line number to an address in set 0 of a 1-set cache.
func lineAddr(cfg Config, line uint64) uint64 { return line << cfg.LineBits }

// TestLRUHitRefreshesRecency: a hit moves the line to most-recently-used, so
// the next eviction takes the untouched oldest line instead.
func TestLRUHitRefreshesRecency(t *testing.T) {
	cfg := oneSetConfig(4, LRU)
	c := NewCache(cfg)
	for line := uint64(0); line < 4; line++ {
		c.Access(lineAddr(cfg, line)) // fill: 0 oldest ... 3 newest
	}
	c.Access(lineAddr(cfg, 0)) // hit refreshes line 0
	c.Access(lineAddr(cfg, 4)) // miss: must evict line 1, the true LRU
	if c.Present(lineAddr(cfg, 1)) {
		t.Error("line 1 should have been evicted (oldest after the hit on 0)")
	}
	for _, keep := range []uint64{0, 2, 3, 4} {
		if !c.Present(lineAddr(cfg, keep)) {
			t.Errorf("line %d should have survived", keep)
		}
	}
}

// TestLRUMatchesReferenceModel is the quickcheck LRU invariant: against any
// access sequence, the cache holds exactly the lines a reference
// most-recently-used list holds — which implies evictions happen in access
// order (the front of the list goes first).
func TestLRUMatchesReferenceModel(t *testing.T) {
	cfg := oneSetConfig(4, LRU)
	f := func(seq []uint8) bool {
		c := NewCache(cfg)
		var model []uint64 // least recent at the front
		for _, s := range seq {
			line := uint64(s % 16)
			c.Access(lineAddr(cfg, line))
			at := -1
			for i, l := range model {
				if l == line {
					at = i
					break
				}
			}
			if at >= 0 {
				model = append(model[:at], model[at+1:]...)
			}
			model = append(model, line)
			if len(model) > cfg.Ways {
				model = model[1:]
			}
			// The cache and the model must agree on every candidate line.
			for l := uint64(0); l < 16; l++ {
				inModel := false
				for _, ml := range model {
					if ml == l {
						inModel = true
					}
				}
				if c.Present(lineAddr(cfg, l)) != inModel {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestTreePLRUVictimIsLeafOfVictimPath: on every eviction, the way that is
// replaced is exactly the leaf the PLRU direction bits select at that
// moment — the tree's well-formedness contract, checked for power-of-two
// and odd associativities.
func TestTreePLRUVictimIsLeafOfVictimPath(t *testing.T) {
	for _, ways := range []int{2, 3, 4, 5, 8} {
		cfg := oneSetConfig(ways, TreePLRU)
		f := func(seq []uint8) bool {
			c := NewCache(cfg)
			filled := 0
			for _, s := range seq {
				line := uint64(s % 32)
				addr := lineAddr(cfg, line)
				wasPresent := c.Present(addr)
				wantVictim := c.plru[0].victim()
				before := make([]uint64, ways)
				for i, l := range c.sets[0] {
					if l.valid {
						before[i] = l.tag
					}
				}
				c.Access(addr)
				if wasPresent {
					continue
				}
				if filled < ways {
					filled++
					continue // invalid-way fill, no eviction yet
				}
				// Eviction: exactly the predicted leaf changed.
				for i, l := range c.sets[0] {
					changed := l.tag != before[i]
					if changed != (i == wantVictim) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(22))}); err != nil {
			t.Fatalf("ways=%d: %v", ways, err)
		}
	}
}

// TestTreePLRUNeverEvictsMostRecent: the most recently accessed way is never
// the victim — touch points every bit on its path away from it.
func TestTreePLRUNeverEvictsMostRecent(t *testing.T) {
	for _, ways := range []int{2, 3, 4, 7, 8} {
		tree := newPLRUTree(ways)
		f := func(seq []uint8) bool {
			for _, s := range seq {
				w := int(s) % ways
				tree.touch(w)
				if tree.victim() == w {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}); err != nil {
			t.Fatalf("ways=%d: %v", ways, err)
		}
	}
}

// TestPseudoRandomSeedDeterminism: with ReplacementSeed fixed, two caches
// walked through the same access sequence evict identically at every step —
// the reproducibility contract campaigns rely on. A different seed must
// eventually diverge on the same sequence (otherwise the property is
// vacuous).
func TestPseudoRandomSeedDeterminism(t *testing.T) {
	cfg := oneSetConfig(4, PseudoRandom)
	cfg.ReplacementSeed = 99
	f := func(seq []uint8) bool {
		c1, c2 := NewCache(cfg), NewCache(cfg)
		for _, s := range seq {
			addr := lineAddr(cfg, uint64(s%32))
			c1.Access(addr)
			c2.Access(addr)
			if !c1.Snapshot(FullView).Equal(c2.Snapshot(FullView)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.ReplacementSeed = 100
	c1, c2 := NewCache(cfg), NewCache(other)
	diverged := false
	for i := 0; i < 4096 && !diverged; i++ {
		addr := lineAddr(cfg, uint64(i%9))
		c1.Access(addr)
		c2.Access(addr)
		diverged = !c1.Snapshot(FullView).Equal(c2.Snapshot(FullView))
	}
	if !diverged {
		t.Error("different ReplacementSeed never diverged: determinism test is vacuous")
	}
}

// TestReplacementPoliciesRespectAssociativity: every policy keeps at most
// Ways lines per set and always keeps the just-accessed line resident.
func TestReplacementPoliciesRespectAssociativity(t *testing.T) {
	for _, pol := range []Replacement{LRU, RoundRobin, PseudoRandom, TreePLRU} {
		cfg := oneSetConfig(4, pol)
		f := func(seq []uint8) bool {
			c := NewCache(cfg)
			for _, s := range seq {
				addr := lineAddr(cfg, uint64(s))
				c.Access(addr)
				if !c.Present(addr) {
					return false
				}
				if tags := c.Snapshot(FullView).Tags(0); len(tags) > cfg.Ways {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(25))}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}
