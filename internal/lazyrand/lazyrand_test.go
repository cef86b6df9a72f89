package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// seeds returns the seeds the equivalence tests cover: the normalization
// edge cases of math/rand's Seed plus a spread of pseudo-random values of
// both signs.
func seeds(n int) []int64 {
	out := []int64{
		0, 1, -1, 2, int32max - 1, int32max, int32max + 1, -int32max, 2 * int32max,
		89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(42))
	for len(out) < n {
		v := int64(r.Uint64())
		out = append(out, v, v>>33, -(v >> 40))
	}
	return out
}

// TestStreamsMatchMathRand draws every seed's stream to lengths that end
// inside the jump window, exactly at its edge, just past it and far past
// it, through each of the rand.Rand methods the codebase uses.
func TestStreamsMatchMathRand(t *testing.T) {
	draws := []int{1, 3, 8, 9, 700}
	methods := []struct {
		name string
		f    func(r *rand.Rand) uint64
	}{
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1000003)) }},
		{"Intn4", func(r *rand.Rand) uint64 { return uint64(r.Intn(4)) }},
	}
	n := 3000
	if testing.Short() {
		n = 300
	}
	for _, m := range methods {
		for _, seed := range seeds(n) {
			for _, d := range draws {
				want := rand.New(rand.NewSource(seed))
				got := New(seed)
				for i := 0; i < d; i++ {
					if g, w := m.f(got), m.f(want); g != w {
						t.Fatalf("%s seed %d draw %d: got %#x, want %#x", m.name, seed, i, g, w)
					}
				}
			}
		}
	}
}

// TestReseed checks that Seed restarts the stream — including after the
// source has fallen back to the full generator — so reused sources stay
// identical to fresh ones.
func TestReseed(t *testing.T) {
	got := New(7)
	for i := 0; i < 20; i++ {
		got.Int63()
	}
	for _, seed := range []int64{7, -3, 0, 123456789} {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

func BenchmarkNewDraw3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := New(int64(i))
		r.Float64()
		r.Intn(128)
		r.Intn(4)
	}
}

func BenchmarkMathRandNewDraw3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		r.Float64()
		r.Intn(128)
		r.Intn(4)
	}
}
