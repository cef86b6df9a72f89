package micro

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: after any sequence of accesses, (1) no set holds more lines
// than its associativity, (2) the most recently accessed address is always
// present, (3) every cached tag was accessed at some point (no invented
// lines when the prefetcher is off).
func TestCacheInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 2
	f := func(seq []uint16) bool {
		c := NewCache(cfg)
		seen := map[uint64]bool{}
		var last uint64
		for _, s := range seq {
			addr := uint64(s) << 3 // spread across sets and offsets
			c.Access(addr)
			seen[addr>>cfg.LineBits] = true
			last = addr
		}
		if len(seq) > 0 && !c.Present(last) {
			return false
		}
		snap := c.Snapshot(FullView)
		for _, st := range snap.Sets {
			if len(st.Tags) > cfg.Ways {
				return false
			}
			for _, tag := range st.Tags {
				line := tag*uint64(cfg.Sets) + uint64(st.Set)
				if !seen[line] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: flushing an address removes exactly that line; other cached
// lines survive.
func TestFlushExactness(t *testing.T) {
	f := func(a, b uint16) bool {
		c := NewCache(DefaultConfig())
		addrA, addrB := uint64(a)<<6, uint64(b)<<6
		c.Access(addrA)
		c.Access(addrB)
		c.Flush(addrA)
		if c.Present(addrA) && addrA>>6 != addrB>>6 {
			return false
		}
		if addrA>>6 != addrB>>6 && !c.Present(addrB) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot equality is reflexive and symmetric, and any single
// extra fill in an observable set breaks it.
func TestSnapshotEqualityProperties(t *testing.T) {
	f := func(seq []uint16, extra uint16) bool {
		build := func() *Cache {
			c := NewCache(DefaultConfig())
			for _, s := range seq {
				c.Access(uint64(s) << 6)
			}
			return c
		}
		c1, c2 := build(), build()
		s1, s2 := c1.Snapshot(FullView), c2.Snapshot(FullView)
		if !s1.Equal(s2) || !s2.Equal(s1) || !s1.Equal(s1) {
			return false
		}
		addr := uint64(extra)<<6 | 1<<30 // tag outside the sequence range
		c2.Access(addr)
		return !c1.Snapshot(FullView).Equal(c2.Snapshot(FullView))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the branch predictor saturates — after N >= 2 consistent
// updates it predicts that direction regardless of history length.
func TestPredictorSaturation(t *testing.T) {
	f := func(history []bool, dir bool) bool {
		b := NewBranchPredictor()
		for _, h := range history {
			b.Update(3, h)
		}
		for i := 0; i < 4; i++ {
			b.Update(3, dir)
		}
		return b.Predict(3) == dir
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: prefetcher never proposes a target on another page, and only
// after at least PrefetchRun accesses.
func TestPrefetcherProperties(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seq []uint16) bool {
		p := NewPrefetcher(cfg)
		for i, s := range seq {
			addr := uint64(s) << 4
			target, ok := p.OnAccess(addr)
			if !ok {
				continue
			}
			if i+1 < cfg.PrefetchRun {
				return false // triggered too early
			}
			if target>>cfg.PageBits != addr>>cfg.PageBits {
				return false // crossed a page
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
