package montecarlo

import (
	"math"
	"math/rand"
	"testing"
)

// drawMixed makes one call on r chosen by op and returns its result as
// bits, so a mismatch in any method shows up as unequal words.
func drawMixed(r *rand.Rand, op byte) uint64 {
	switch op % 4 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return math.Float64bits(r.NormFloat64())
	default:
		return math.Float64bits(r.Float64())
	}
}

// TestSampleRNGMatchesStdlib pins the bit-identity contract of the lazy
// source: SampleRNG(seed, idx) yields, call for call, the stream of
// rand.New(rand.NewSource(s)) for the splitmix-derived seed s. Sample i
// draws i values, so the 3000 streams cover every length from 0 (a source
// that is never filled) to well past the draw-274 register fill.
func TestSampleRNGMatchesStdlib(t *testing.T) {
	const seed = 20130318
	for idx := 0; idx < 3000; idx++ {
		got := SampleRNG(seed, idx)
		want := rand.New(rand.NewSource(sampleSeed(seed, idx)))
		for k := 0; k < idx; k++ {
			op := byte(idx + k/7)
			if g, w := drawMixed(got, op), drawMixed(want, op); g != w {
				t.Fatalf("sample %d, call %d (op %d): got %#x, want %#x", idx, k, op%4, g, w)
			}
		}
	}
}

// TestSampleRNGAllocs pins the point of the lazy source: a sample that
// draws a circuit's worth of Gaussians allocates the *rand.Rand and the
// source header, never the 4.9 KB register.
func TestSampleRNGAllocs(t *testing.T) {
	var sink float64
	idx := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := SampleRNG(7, idx)
		idx++
		for k := 0; k < 40; k++ {
			sink += r.NormFloat64()
		}
	})
	if allocs > 2 {
		t.Fatalf("SampleRNG + 40 NormFloat64 = %v allocs, want <= 2", allocs)
	}
	_ = sink
}

// FuzzSampleSource compares NewSource against rand.NewSource over a mix of
// Int63/Uint64/NormFloat64/Float64 calls, reseeding both mid-stream. The
// corpus covers the seed normalization edge cases (0, negatives, multiples
// of 2³¹−1, the int64 extremes) and stream lengths around the lazy phase's
// end (273 draws) and the register length (607).
func FuzzSampleSource(f *testing.F) {
	seeds := []int64{0, -1, int32max, 2 * int32max, -3 * int32max, math.MinInt64, math.MaxInt64}
	for i, s := range seeds {
		for _, n := range []uint16{272, 273, 274, 606, 607, 608, 2000} {
			// mix {0} is Int63 only, so n counts source draws exactly.
			f.Add(s, n, uint16(0xffff), int64(0), []byte{0})
			f.Add(s, n, n/2, seeds[(i+1)%len(seeds)], []byte{0, 1, 2, 3, 2})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16, reseed int64, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		got := rand.New(NewSource(seed))
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < int(draws); k++ {
			if k == int(reseedAt) {
				got.Seed(reseed)
				want.Seed(reseed)
			}
			op := mix[k%len(mix)]
			if g, w := drawMixed(got, op), drawMixed(want, op); g != w {
				t.Fatalf("seed %d, call %d (op %d, reseed %d at %d): got %#x, want %#x",
					seed, k, op%4, reseed, reseedAt, g, w)
			}
		}
	})
}

// BenchmarkSampleRNG times one sample's PRNG: construction plus the 40
// Gaussian draws of an inverter-sized circuit, against math/rand's eagerly
// seeded source.
func BenchmarkSampleRNG(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  func(idx int) *rand.Rand
	}{
		{"lazy", func(idx int) *rand.Rand { return SampleRNG(1, idx) }},
		{"stdlib", func(idx int) *rand.Rand { return rand.New(rand.NewSource(sampleSeed(1, idx))) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				r := bc.rng(i)
				for k := 0; k < 40; k++ {
					sink += r.NormFloat64()
				}
			}
			_ = sink
		})
	}
}
