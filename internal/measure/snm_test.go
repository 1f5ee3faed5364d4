package measure

import (
	"math"
	"math/rand"
	"testing"

	"vstat/internal/circuits"
)

// maxSquareBisect is the oracle for maxSquare: the same 241 anchors, each
// root of g(s) = top(x0+s) − s − bot(x0) found by a 60-step bisection on
// [0, span].
func maxSquareBisect(top, bot *interp1) float64 {
	lo := math.Max(top.lo(), bot.lo())
	hi := math.Min(top.hi(), bot.hi())
	if hi <= lo {
		return 0
	}
	const anchors = 240
	best := 0.0
	span := hi - lo
	for i := 0; i <= anchors; i++ {
		x0 := lo + span*float64(i)/anchors
		g := func(s float64) float64 { return top.at(x0+s) - s - bot.at(x0) }
		if g(0) <= 0 {
			continue
		}
		sLo, sHi := 0.0, span
		if g(sHi) > 0 {
			best = math.Max(best, sHi)
			continue
		}
		for it := 0; it < 60; it++ {
			mid := 0.5 * (sLo + sHi)
			if g(mid) > 0 {
				sLo = mid
			} else {
				sHi = mid
			}
		}
		best = math.Max(best, sLo)
	}
	return best
}

// snmOracleTol bounds the closed form's distance from the bisection: both
// resolve the same root to a few ulps of a volt.
const snmOracleTol = 1e-15

// checkSNMOracle compares both lobes of a butterfly, measured by maxSquare,
// with the bisection oracle, and requires finite results.
func checkSNMOracle(t *testing.T, left, right circuits.ButterflyCurve) {
	t.Helper()
	fA, err := newInterp(left.In, left.Out)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := newInterp(right.Out, right.In)
	if err != nil {
		t.Fatal(err)
	}
	for _, lobe := range [2][2]*interp1{{fA, fB}, {fB, fA}} {
		got, want := maxSquare(lobe[0], lobe[1]), maxSquareBisect(lobe[0], lobe[1])
		if !finite(got) || math.Abs(got-want) > snmOracleTol {
			t.Fatalf("maxSquare %.17g, bisection %.17g: off by %g V", got, want, got-want)
		}
	}
}

// Mismatched cells' READ and HOLD butterflies: the closed-form square
// matches the bisection oracle on real curves.
func TestSNMMatchesBisection(t *testing.T) {
	m := mismatchedVS()
	cell := circuits.NewPooledSRAM(0.9, circuits.DefaultSRAMSizing(), m.Nominal(), 61, false)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		cell.Restat(m.Statistical(rng))
		for _, read := range []bool{true, false} {
			l, r, err := cell.Butterfly(read)
			if err != nil {
				t.Fatal(err)
			}
			checkSNMOracle(t, l, r)
		}
	}
}

// fuzzCurve builds a falling transfer curve on a uniform grid over [0, 1]
// from drops: Out starts at 1 and falls by drops[i]/128 from point i to
// point i+1, clamped at 0. Zero drops and the clamp make flat stretches,
// which the inverted curve turns into repeated abscissae.
func fuzzCurve(drops []byte) circuits.ButterflyCurve {
	n := len(drops) + 1
	in, out := make([]float64, n), make([]float64, n)
	out[0] = 1
	for i := 1; i < n; i++ {
		in[i] = float64(i) / float64(n-1)
		out[i] = math.Max(0, out[i-1]-float64(drops[i-1])/128)
	}
	return circuits.ButterflyCurve{In: in, Out: out}
}

// idealDrops is the drops form of TestSNMIdealizedCurves' curves: a
// 0.005 V grid with the fall from 1 to 0 spread over the two grid steps
// around vm.
func idealDrops(vm float64) []byte {
	d := make([]byte, 200)
	k := int(math.Round(vm / 0.005))
	d[k-1], d[k] = 64, 64
	return d
}

// FuzzSNM holds the closed-form square within snmOracleTol of the
// bisection oracle over random falling curves with flat stretches, seeded
// with the idealized pair.
func FuzzSNM(f *testing.F) {
	f.Add(idealDrops(0.3), idealDrops(0.6))
	f.Add([]byte{0, 0, 128, 0, 0}, []byte{0, 0, 0, 128, 0})
	f.Add([]byte{10, 20, 30, 40, 50, 60}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, left, right []byte) {
		if len(left) == 0 || len(right) == 0 || len(left) > 255 || len(right) > 255 {
			t.Skip()
		}
		l, r := fuzzCurve(left), fuzzCurve(right)
		checkSNMOracle(t, l, r)
		res, err := SNM(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if !finite(res.Upper) || !finite(res.Lower) || !finite(res.SNM) {
			t.Fatalf("non-finite SNM %+v", res)
		}
	})
}
