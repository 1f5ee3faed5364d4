package measure

import (
	"math"
	"sort"

	"vstat/internal/circuits"
)

// SNMResult carries the static-noise-margin decomposition of a butterfly
// plot: the maximal square side in each lobe and the cell SNM (their
// minimum), all in volts.
type SNMResult struct {
	Upper, Lower, SNM float64
}

// SNM computes the static noise margin of a butterfly plot by Seevinck's
// largest-embedded-square construction. left is the transfer curve
// qb = f(q) obtained by forcing q; right is q = g(qb) obtained by forcing
// qb. Plotted on common (q, qb) axes, the two curves enclose two lobes; the
// SNM is the side of the largest square fitting in the smaller lobe.
func SNM(left, right circuits.ButterflyCurve) (SNMResult, error) {
	// Curve A on (x=q, y=qb) axes: y = f(x).
	fA, err := newInterp(left.In, left.Out)
	if err != nil {
		return SNMResult{}, err
	}
	// Curve B on the same axes: points (g(v), v) — invert to y = gInv(x).
	fB, err := newInterp(right.Out, right.In)
	if err != nil {
		return SNMResult{}, err
	}
	// The two lobes are the regions where one curve runs above the other;
	// the metastable crossing separates them, so the two orderings of the
	// same curve pair measure the two lobes.
	upper := maxSquare(fA, fB)
	lower := maxSquare(fB, fA)

	return SNMResult{Upper: upper, Lower: lower, SNM: math.Min(upper, lower)}, nil
}

// maxSquare returns the side of the largest axis-aligned square that fits
// between a falling upper curve yTop(x) and a falling lower curve yBot(x):
// for anchor x0, the square [x0, x0+s] × [yTop(x0+s)−s, yTop(x0+s)] fits
// when g(s) = yTop(x0+s) − s − yBot(x0) ≥ 0; s(x0) is the root of g
// (falling in s), and the result is max over 241 anchors.
func maxSquare(top, bot *interp1) float64 {
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
		b := bot.at(x0)
		if top.at(x0)-b <= 0 {
			continue // outside the lobe
		}
		if top.at(x0+span)-span-b > 0 {
			best = math.Max(best, span)
			continue
		}
		best = math.Max(best, top.squareRoot(x0, b))
	}
	return best
}

// squareRoot returns the root s > 0 of g(s) = p.at(x0+s) − s − b for a
// non-increasing interpolant, given g(0) > 0 and a root in the domain or
// on its clamped right tail. It walks the knots from x0 to the first one
// where g is no longer positive and solves the segment before it, which is
// linear: one division instead of a bisection. A zero-width segment (a
// repeated abscissa) is a downward jump, so a root there sits on its knot.
func (p *interp1) squareRoot(x0, b float64) float64 {
	k := sort.SearchFloat64s(p.x, x0)
	if k == 0 {
		k = 1 // x0 on the first knot: its segment is the first one
	}
	for ; k < len(p.x); k++ {
		x1, y1 := p.x[k], p.y[k]
		if y1-(x1-x0)-b > 0 {
			continue
		}
		xa, ya := p.x[k-1], p.y[k-1]
		if x1 == xa {
			return x1 - x0
		}
		m := (y1 - ya) / (x1 - xa)
		// g(s) = ya + m·(x0+s−xa) − s − b on this segment.
		return (ya - b + m*(x0-xa)) / (1 - m)
	}
	// Past the last knot the curve is flat at its last value.
	return p.y[len(p.y)-1] - b
}
