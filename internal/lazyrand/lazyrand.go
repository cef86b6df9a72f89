// Package lazyrand provides a math/rand source that is stream-identical to
// rand.NewSource(seed) but costs almost nothing to seed.
//
// rand.NewSource fills a 607-word lagged-Fibonacci state by running a
// Lehmer LCG (x ← 48271·x mod 2³¹−1) about 1800 steps, roughly 13µs — far
// more than the handful of draws the per-execution noise stream, the SAT
// decision stream and the cache replacement stream usually take. The
// generator's first draws read only a few state words, and each word is a
// fixed function of three LCG outputs, which can be jumped to directly:
// x_n = seed·48271ⁿ mod (2³¹−1). This source serves the first jumpDraws
// values that way and only builds (and fast-forwards) a real
// rand.NewSource when a caller draws more.
package lazyrand

import "math/rand"

// New returns a *rand.Rand whose stream is bit-identical to
// rand.New(rand.NewSource(seed)) through every method, Seed included. Like
// the math/rand source, its source is not safe for concurrent use.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// Constants of math/rand's generator (rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271

	// jumpDraws is how many values are computed by jumping ahead. Draw k
	// (0-based) of a fresh source is vec[feed-1-k] + vec[tap-1-k] with
	// feed = rngLen-rngTap and tap wrapping to rngLen, and it writes only
	// the feed slot, so the first draws read state exactly as seeded.
	jumpDraws = 8
	feedBase  = rngLen - rngTap - 1 // 333: the feed slot of draw 0
	tapBase   = rngLen - 1          // 606: the tap slot of draw 0
)

// cooked holds the rngCooked entries the jump draws need: [0] is
// rngCooked[feedBase-k] and [1] is rngCooked[tapBase-k] for draw k.
// Copied from $GOROOT/src/math/rand/rng.go (Copyright 2009 The Go Authors,
// BSD-style license).
var cooked = [2][jumpDraws]int64{
	{ // rngCooked[333] down to rngCooked[326]
		-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
		-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675,
	},
	{ // rngCooked[606] down to rngCooked[599]
		4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
		-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383,
	},
}

// pow[j][k][t] is 48271^(21+3i+t) mod (2³¹−1) for the state word i read by
// draw k (i = feedBase-k for j = 0, tapBase-k for j = 1): seeding runs the
// LCG 20 steps, then three steps per word, so word i is built from LCG
// outputs x_{21+3i}, x_{22+3i} and x_{23+3i}.
var pow [2][jumpDraws][3]uint64

func init() {
	for j, base := range [2]int{feedBase, tapBase} {
		for k := range pow[j] {
			for t := range pow[j][k] {
				pow[j][k][t] = powMod(lcgMul, 21+3*(base-k)+t)
			}
		}
	}
}

// powMod returns b^n mod (2³¹−1).
func powMod(b uint64, n int) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % int32max
		}
		b = b * b % int32max
	}
	return r
}

type source struct {
	x0   uint64        // normalized LCG seed, in [1, 2³¹−2]
	n    int           // draws served, saturating at jumpDraws+1
	full rand.Source64 // real generator past the jump window; reused across Seed
}

// Seed implements rand.Source with math/rand's seed normalization.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.n = 0
}

// word returns seeded state word j/k (see pow) exactly as rngSource.Seed
// computes it.
func (s *source) word(j, k int) int64 {
	w := &pow[j][k]
	u := int64(s.x0*w[0]%int32max) << 40
	u ^= int64(s.x0*w[1]%int32max) << 20
	u ^= int64(s.x0 * w[2] % int32max)
	return u ^ cooked[j][k]
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.n < jumpDraws {
		k := s.n
		s.n++
		return uint64(s.word(0, k) + s.word(1, k))
	}
	if s.n == jumpDraws {
		if s.full == nil {
			s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		} else {
			s.full.Seed(int64(s.x0))
		}
		for i := 0; i < jumpDraws; i++ {
			s.full.Uint64()
		}
		s.n++
	}
	return s.full.Uint64()
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
