package montecarlo

import "math/rand"

// Per-sample PRNG source. Every Monte Carlo sample gets a fresh PRNG, and
// math/rand's rand.NewSource spends ~15 µs filling its 607-word register —
// far more than a golden device sample costs to evaluate, and more than
// most samples ever draw. sampleSource produces exactly the stream of
// rand.NewSource(seed), draw for draw, but defers the register fill.
//
// math/rand seeds its additive lagged Fibonacci register from the
// recurrence x ← 48271·x mod (2³¹−1): word i is
// (x₂₁₊₃ᵢ<<40 ⊕ x₂₂₊₃ᵢ<<20 ⊕ x₂₃₊₃ᵢ) ⊕ rngCooked[i], and xₙ = 48271ⁿ·x₀, so
// any word can be computed on its own from a table of powers. Draw k
// (1-based) returns vec[334−k] + vec[607−k] and stores the sum at
// vec[334−k]; for k ≤ 273 neither read touches a word written earlier, so
// the first 273 draws are sums of two freshly computed seed words and need
// no register at all. Draw 274 is the first to read back a written word:
// it fills the register, replays the 273 stores, and from then on the
// source is the plain generator.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seedPow[i][j] is 48271^(21+3i+j) mod (2³¹−1): the multiplier taking the
// normalized seed x₀ to the recurrence output that feeds bits 40, 20 and 0
// (j = 0, 1, 2) of register word i.
var seedPow = func() (t [rngLen][3]uint64) {
	p := uint64(1)
	for n := 1; n <= 20+3*rngLen; n++ {
		p = p * 48271 % int32max
		if n > 20 {
			t[(n-21)/3][(n-21)%3] = p
		}
	}
	return t
}()

// sampleSource is a rand.Source64 whose output equals rand.NewSource's for
// the same seed. Until the first register fill it holds only the seed, so
// a sample drawing at most 273 values never allocates the 4.9 KB register.
type sampleSource struct {
	x     uint64         // normalized seed x₀ of the seeding recurrence
	drawn int            // draws served without a register, ≤ rngTap
	full  bool           // vec holds the live register
	tap   int            // register read index (live register only)
	feed  int            // register read/write index (live register only)
	vec   *[rngLen]int64 // allocated on the first fill, reused after Seed
}

var _ rand.Source64 = (*sampleSource)(nil)

// NewSource returns a rand.Source64 producing exactly the stream of
// rand.NewSource(seed), for every seed and every mix of Int63, Uint64 and
// Seed calls, without rand.NewSource's up-front register fill.
func NewSource(seed int64) rand.Source64 {
	s := &sampleSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed). The
// register, if any, is kept for reuse but refilled only when needed.
func (s *sampleSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
	s.drawn = 0
	s.full = false
}

// word computes register word i of the freshly seeded generator.
func (s *sampleSource) word(i int) int64 {
	p := &seedPow[i]
	u := mulMod(p[0], s.x)<<40 ^ mulMod(p[1], s.x)<<20 ^ mulMod(p[2], s.x)
	return int64(u) ^ rngCooked[i]
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ by Mersenne folding, which
// is cheaper than a division.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// fill materializes the register as it stands after rngTap draws.
func (s *sampleSource) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for i := rngLen - 2*rngTap; i < rngLen-rngTap; i++ {
		v[i] += v[i+rngTap]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.full = true
}

// Uint64 returns the next 64-bit value of the stream.
func (s *sampleSource) Uint64() uint64 {
	if !s.full {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *sampleSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
